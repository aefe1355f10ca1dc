"""Plain-numpy oracle for adaptive exit on a head-tail cycled model.

Every middle-cycle K/V entry incremental decode reads equals the value a
full batch forward produces (earlier positions are deepened lazily, in
order), so per-position exit traces and the hidden states entering the tail
can be read off one batch pass that steps the schedule application by
application. The tail is the one heterogeneous part (each position's entry
comes from its own exit depth), so the oracle recomputes it by hand.
"""
import math

import numpy as np

from cycleformer.autodiff import softmax_np
from cycleformer.model import build_schedule

from oracle_kernels import gelu_np, layer_norm_np
from stepper import step_applications


def exit_cycle(trace, threshold: float) -> int | None:
    """First 1-based cycle whose aggregate reaches threshold, else None."""
    for i, v in enumerate(trace, start=1):
        if v >= threshold:
            return i
    return None


def batch_oracle(params, cfg, ids, threshold):
    """Per-position exit depths, logits and traces for ids of shape (T,),
    derived from one batch pass."""
    steps = step_applications(ids, params, cfg)
    by_cycle = build_schedule(cfg).by_cycle
    t = len(ids)
    n = cfg.loop_count

    traces = []
    for pos in range(t):
        trace = []
        for c in range(1, n + 1):
            per_app = [steps[i].weights[0, :, pos, 0].mean() for i in by_cycle[c]]
            trace.append(float(np.mean(per_app)))
        traces.append(trace)
    depths = [exit_cycle(tr, threshold) or n for tr in traces]

    # hidden state entering the tail = batch hidden right after the exit cycle,
    # i.e. the input of the application that follows that cycle's last app
    tail_in = np.stack(
        [steps[by_cycle[d][-1] + 1].h_in[0, pos] for pos, d in zip(range(t), depths)]
    )

    rec = params.record(cfg.all_layers)
    nh, hd = cfg.n_heads, cfg.d_model // cfg.n_heads
    x = layer_norm_np(tail_in, rec.ln1_g.data, rec.ln1_b.data)
    k = (x @ rec.wk.data).reshape(t, nh, hd)
    v = (x @ rec.wv.data).reshape(t, nh, hd)
    q = (x @ rec.wq.data).reshape(t, nh, hd)
    out = np.zeros_like(tail_in)
    for pos in range(t):
        mix = np.zeros((nh, hd))
        for head in range(nh):
            s = k[: pos + 1, head] @ q[pos, head] / math.sqrt(hd)
            w = softmax_np(s, axis=-1)
            mix[head] = w @ v[: pos + 1, head]
        out[pos] = tail_in[pos] + mix.reshape(-1) @ rec.wo.data
    x2 = layer_norm_np(out, rec.ln2_g.data, rec.ln2_b.data)
    f = gelu_np(x2 @ rec.w1.data + rec.b1.data) @ rec.w2.data + rec.b2.data
    if cfg.use_gate:
        f = f * (1.0 / (1.0 + np.exp(-(x2 @ rec.gate_w.data + rec.gate_b.data))))
    out = out + f
    logits = layer_norm_np(out, params.final_g.data, params.final_b.data) @ params.head_weight().data.T
    return depths, logits, traces


def pick_mixed_threshold(traces):
    """A threshold strictly between observed aggregates, so exit decisions are
    robust to last-ulp differences and the depths come out heterogeneous."""
    first = sorted(tr[0] for tr in traces)
    return (first[0] + first[-1]) / 2.0
