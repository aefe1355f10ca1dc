"""Incremental decoding with per-position adaptive depth.

Each generated position runs the schedule's head, then its cycles one at a
time; after cycle n the position's own zero-slot attention (averaged over
heads, then over the cycle's applications) is compared with the
policy threshold, and the first cycle that reaches it triggers an exit
through the shared tail. Per-slot K/V caches are positionally indexed
(after row 0, the zero token's, where the application has one);
when a later position runs deeper than an earlier one, the earlier
position's skipped middle-cycle entries are recomputed lazily (in position
order, so every attention read sees a complete prefix). A position's tail
entry is written once, at its own exit, and is never revised by later
deepening; its emitted logits are final.

Each token runs the model's own code on a one-token batch, with no tape:
`embed`, then per application `attention_with_zero_token` over the slot's
K/V rows (its slot-0 weight is the halting signal) and `gated_ffn` (which
gates iff the layer's record has a gate), then `_lm_logits`. They are
imported by name, so wrappers set on the `model` module (the tracer's
spans) do not reach decode.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, softmax_np
from .errors import ConfigError, UsageError
from .model import (
    ModelConfig,
    ModelParameters,
    _lm_logits,
    attention_with_zero_token,
    build_schedule,
    embed,
    gated_ffn,
    halts,
    token_ids,
)
from .data import BOS_ID


@dataclass(frozen=True)
class ExitPolicy:
    """threshold None: fixed full depth. Otherwise exit at the first cycle
    whose zero-attention, averaged over its applications, is >= threshold
    (never, if none reaches it; softmax means stay strictly below 1, so
    threshold 1 means full depth)."""

    threshold: float | None = None

    def __post_init__(self):
        if self.threshold is not None and not self.threshold >= 0:  # NaN too
            raise ConfigError(f"exit threshold must be >= 0, got {self.threshold}")

    @property
    def adaptive(self) -> bool:
        return self.threshold is not None


class _Slot:
    __slots__ = ("k", "v", "filled")

    def __init__(self, t_max: int, d: int, dtype):
        self.k = np.zeros((t_max, d), dtype=dtype)
        self.v = np.zeros((t_max, d), dtype=dtype)
        self.filled = 0


class DecodeCache:
    """Per-application K/V buffers plus the suspended state needed to deepen
    an early-exited position later: `h_mid[p]` is position p's hidden state
    after its last finished cycle and `depth[p]` counts its finished cycles
    (always 0 for V, which has none)."""

    def __init__(self, params: ModelParameters, config: ModelConfig):
        self.params = params
        self.config = config
        self.schedule = build_schedule(config)
        dtype = params.dtype()
        d, tm = config.d_model, config.t_max
        # An application with a zero token keeps it in its slot's row 0.
        apps = self.schedule.applications
        self.slots = [_Slot(tm + (app in params.pool), d, dtype) for app in apps]
        self.h_mid = np.zeros((tm, d), dtype=dtype)
        self.depth = np.zeros(tm, dtype=np.int64)
        self.n_pos = 0
        self.cycles_used: list[int] = []


def _run_slot(cache: DecodeCache, slot_idx: int, pos: int, h: np.ndarray):
    """One block application for a single query at `pos`; returns (h, zmean).
    It writes position `pos`'s K/V row of the slot and attends over the rows
    up to it, zero-token row included."""
    params = cache.params
    layer, cycle = cache.schedule.applications[slot_idx]
    rec = params.record(layer)
    slot = cache.slots[slot_idx]
    if slot.filled < pos:
        raise UsageError(f"cache prefix incomplete at slot {slot_idx}: {slot.filled} < {pos}")
    h_att, zattn = attention_with_zero_token(
        Tensor(h[None, None]), rec, params.pool.get((layer, cycle)), cache.config.n_heads,
        cache=(slot.k[None], slot.v[None]), start=pos,
    )
    slot.filled = max(slot.filled, pos + 1)
    h_out, _ = gated_ffn(h_att, rec)
    return h_out.data[0, 0], None if zattn is None else float(zattn.mean())


def _ensure_prefix_depth(cache: DecodeCache, upto: int, target: int) -> None:
    """Deepen positions 0..upto-1 to `target` completed cycles, in order."""
    for p in range(upto):
        while cache.depth[p] < target:
            n = int(cache.depth[p]) + 1
            h = cache.h_mid[p].copy()
            for s in cache.schedule.by_cycle[n]:
                h, _ = _run_slot(cache, s, p, h)
            cache.h_mid[p] = h
            cache.depth[p] = n


def decode_step(cache: DecodeCache, token_id: int, policy: ExitPolicy | None = None):
    """Process one token; returns (next-token logits (V,), cycles used).

    Walks the schedule's head, its cycles and its tail, as `forward` does.
    Before cycle n the earlier positions are deepened to n finished cycles.
    With an adaptive policy the position exits after the first cycle whose
    mean zero-attention reaches the threshold; fixed policies run
    every cycle.
    """
    policy = policy or ExitPolicy()
    config, schedule = cache.config, cache.schedule
    config.check_exit_threshold(policy.threshold)
    t = cache.n_pos
    if t >= config.t_max:
        raise UsageError(f"context is full at t_max={config.t_max} positions")
    h = embed(np.array([[token_id]]), cache.params, start=t).data[0, 0]
    used = config.n_exits
    for s in schedule.pre:
        h, _ = _run_slot(cache, s, t, h)
    for n, cycle_slots in schedule.by_cycle.items():
        _ensure_prefix_depth(cache, t, n)
        zvals = []
        for s in cycle_slots:
            h, zmean = _run_slot(cache, s, t, h)
            zvals.append(zmean)
        cache.h_mid[t] = h
        cache.depth[t] = n
        if policy.adaptive and halts(zvals, policy.threshold):
            used = n
            break
    for s in schedule.post:
        h, _ = _run_slot(cache, s, t, h)
    logits = _lm_logits(Tensor(h[None, None]), cache.params).data[0, 0]
    cache.n_pos += 1
    cache.cycles_used.append(used)
    return logits, used


@dataclass
class GenerateResult:
    ids: np.ndarray
    new_ids: np.ndarray
    cycles_used: list[int] = field(default_factory=list)


def generate(
    params: ModelParameters,
    config: ModelConfig,
    prompt_ids,
    max_new_tokens: int,
    policy: ExitPolicy | None = None,
    temperature: float = 0.0,
    seed: int = 0,
) -> GenerateResult:
    """Decode the prompt, then sample. Temperature 0 is greedy argmax.

    Every emitted token is processed through the stack (so each has a cycle
    count); prompt plus continuation must fit within t_max.
    """
    if max_new_tokens < 0:
        raise ConfigError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
    if not temperature >= 0.0:  # NaN too
        raise ConfigError(f"temperature must be >= 0, got {temperature}")
    policy = policy or ExitPolicy()
    prompt = np.asarray(prompt_ids).reshape(-1)
    prompt = [int(i) for i in token_ids(prompt)] if prompt.size else [BOS_ID]
    total = len(prompt) + max_new_tokens
    if total > config.t_max:
        raise UsageError(
            f"prompt ({len(prompt)}) plus {max_new_tokens} new tokens exceeds t_max={config.t_max}"
        )
    cache = DecodeCache(params, config)
    logits = None
    for tok in prompt:
        logits, _ = decode_step(cache, tok, policy)
    rng = np.random.default_rng(seed)
    new_ids: list[int] = []
    for _ in range(max_new_tokens):
        if temperature == 0.0:
            nxt = int(np.argmax(logits))
        else:
            z = logits.astype(np.float64)
            with np.errstate(over="ignore"):  # shifted first, a tiny temperature gives -inf, not inf
                probs = softmax_np((z - z.max()) / temperature, axis=-1)
            nxt = int(rng.choice(len(probs), p=probs / probs.sum()))
        new_ids.append(nxt)
        logits, _ = decode_step(cache, nxt, policy)
    ids = np.array(prompt + new_ids, dtype=np.int64)
    return GenerateResult(ids, np.array(new_ids, dtype=np.int64), list(cache.cycles_used))
