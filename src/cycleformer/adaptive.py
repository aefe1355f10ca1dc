"""Incremental decoding with per-position adaptive depth.

Each generated position runs the schedule's head, then its cycles one at a
time; after cycle n the position's own zero-slot attention (averaged over
heads, then aggregated over the cycle's applications) is compared with the
policy threshold, and the first cycle that reaches it triggers an exit
through the shared tail. Per-slot K/V caches are positionally indexed;
when a later position runs deeper than an earlier one, the earlier
position's skipped middle-cycle entries are recomputed lazily (in position
order, so every attention read sees a complete prefix). A position's tail
entry is written once, at its own exit, and is never revised by later
deepening; its emitted logits are final.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import gelu_np, layer_norm_np, softmax_np
from .errors import ConfigError, UsageError
from .model import ModelConfig, ModelParameters, build_schedule
from .telemetry import aggregate
from .data import BOS_ID


@dataclass(frozen=True)
class ExitPolicy:
    """threshold None: fixed full depth. Otherwise exit at the first cycle
    whose aggregated zero-attention is >= threshold (never, if none reaches
    it; softmax means stay strictly below 1, so threshold 1 means full depth)."""

    threshold: float | None = None
    aggregation: str = "mean"

    def __post_init__(self):
        if self.aggregation not in ("mean", "last"):
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        if self.threshold is not None and not self.threshold >= 0:  # NaN too
            raise ConfigError(f"exit threshold must be >= 0, got {self.threshold}")

    @property
    def adaptive(self) -> bool:
        return self.threshold is not None


def exit_cycle(trace, threshold: float) -> int | None:
    """First 1-based cycle whose aggregate reaches threshold, else None."""
    for i, v in enumerate(trace, start=1):
        if v >= threshold:
            return i
    return None


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
        self.slots = [_Slot(tm, d, dtype) for _ in self.schedule.applications]
        self.h_mid = np.zeros((tm, d), dtype=dtype)
        self.depth = np.zeros(tm, dtype=np.int64)
        self.n_pos = 0
        self.cycles_used: list[int] = []


def _run_slot(cache: DecodeCache, slot_idx: int, pos: int, h: np.ndarray):
    """One block application for a single query at `pos`; returns (h, zmean)."""
    params, config = cache.params, cache.config
    layer, cycle = cache.schedule.applications[slot_idx]
    rec = params.record(layer)
    nh = config.n_heads
    hd = config.d_model // nh
    slot = cache.slots[slot_idx]
    if slot.filled < pos:
        raise UsageError(f"cache prefix incomplete at slot {slot_idx}: {slot.filled} < {pos}")
    x = layer_norm_np(h, rec.ln1_g.data, rec.ln1_b.data)
    slot.k[pos] = x @ rec.wk.data
    slot.v[pos] = x @ rec.wv.data
    slot.filled = max(slot.filled, pos + 1)
    qh = (x @ rec.wq.data).reshape(nh, hd)
    keys = slot.k[: pos + 1].reshape(pos + 1, nh, hd)
    vals = slot.v[: pos + 1].reshape(pos + 1, nh, hd)
    scores = np.einsum("nh,pnh->np", qh, keys) / math.sqrt(hd)
    zkey = params.pool.get((layer, cycle)) if config.use_zero_token else None
    zmean = None
    if zkey is not None:
        zh = zkey.data.reshape(nh, hd)
        zscore = np.sum(qh * zh, axis=1, keepdims=True) / math.sqrt(hd)
        w = softmax_np(np.concatenate([zscore, scores], axis=1), axis=-1)
        zmean = float(w[:, 0].mean())
        mix = np.einsum("np,pnh->nh", w[:, 1:], vals)
    else:
        w = softmax_np(scores, axis=-1)
        mix = np.einsum("np,pnh->nh", w, vals)
    h_att = h + mix.reshape(-1) @ rec.wo.data
    x2 = layer_norm_np(h_att, rec.ln2_g.data, rec.ln2_b.data)
    o = gelu_np(x2 @ rec.w1.data + rec.b1.data) @ rec.w2.data + rec.b2.data
    if config.use_gate:
        z = float(x2 @ rec.gate_w.data[:, 0] + rec.gate_b.data[0])
        gate = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
        o = o * gate
    return h_att + o, zmean


def _embed(cache: DecodeCache, token_id: int, pos: int) -> np.ndarray:
    params = cache.params
    v = params.tok_emb.data.shape[0]
    if not 0 <= token_id < v:
        raise IndexError(f"token id {token_id} outside embedding table of {v} rows")
    return params.tok_emb.data[token_id] + params.pos_emb.data[pos]


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


def _lm_logits_single(params: ModelParameters, h: np.ndarray) -> np.ndarray:
    hn = layer_norm_np(h, params.final_g.data, params.final_b.data)
    return hn @ params.head_weight().data.T


def decode_step(cache: DecodeCache, token_id: int, policy: ExitPolicy | None = None):
    """Process one token; returns (next-token logits (V,), cycles used).

    Walks the schedule's head, its cycles and its tail, as `forward` does.
    Before cycle n the earlier positions are deepened to n finished cycles.
    With an adaptive policy the position exits after the first cycle whose
    aggregated zero-attention reaches the threshold; fixed policies run
    every cycle.
    """
    policy = policy or ExitPolicy()
    config, schedule = cache.config, cache.schedule
    if policy.adaptive and not config.supports_adaptive_exit:
        raise ConfigError(
            "adaptive exit needs zero-token attention on a head-tail cycled variant"
        )
    t = cache.n_pos
    if t >= config.t_max:
        raise UsageError(f"context is full at t_max={config.t_max} positions")
    h = _embed(cache, token_id, t)
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
        if policy.adaptive and aggregate(zvals, policy.aggregation) >= policy.threshold:
            used = n
            break
    for s in schedule.post:
        h, _ = _run_slot(cache, s, t, h)
    logits = _lm_logits_single(cache.params, h)
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
    prompt = [int(i) for i in np.asarray(prompt_ids, dtype=np.int64).reshape(-1)]
    if not prompt:
        prompt = [BOS_ID]
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
            probs = softmax_np(logits.astype(np.float64) / temperature, axis=-1)
            nxt = int(rng.choice(len(probs), p=probs / probs.sum()))
        new_ids.append(nxt)
        logits, _ = decode_step(cache, nxt, policy)
    ids = np.array(prompt + new_ids, dtype=np.int64)
    return GenerateResult(ids, np.array(new_ids, dtype=np.int64), list(cache.cycles_used))
