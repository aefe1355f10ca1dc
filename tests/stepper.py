"""Step a model's schedule one application at a time, outside `forward`.

Oracles read each application's input hidden state and attention weights
from here. The steps run the op-by-op reference blocks (reference_blocks.py,
held bitwise equal to the fused ones by test_blocks.py), so the oracles share
no code with the blocks, or the per-cycle signals, that evaluation and
decoding read from `forward`.
"""
from dataclasses import dataclass

import numpy as np

from cycleformer.autodiff import tensor
from cycleformer.model import build_schedule

from reference_blocks import reference_attention_weights, reference_ffn


@dataclass
class Application:
    layer: int
    cycle: int
    h_in: np.ndarray  # (B, T, d) hidden state entering the application
    weights: np.ndarray  # (B, heads, T, keys) attention; key 0 is the zero slot if any


def step_applications(ids, params, config) -> list[Application]:
    """Every application of the schedule, in order, on ids of shape (T,) or (B, T)."""
    ids = np.atleast_2d(np.asarray(ids))
    t = ids.shape[1]
    h = tensor(params.tok_emb.data[ids] + params.pos_emb.data[:t])
    steps = []
    for layer, cycle in build_schedule(config).applications:
        rec = params.record(layer)
        h_in = h.data
        h, weights = reference_attention_weights(h, rec, params.pool.get((layer, cycle)), config.n_heads)
        h, _ = reference_ffn(h, rec)
        steps.append(Application(layer, cycle, h_in, weights.data))
    return steps
