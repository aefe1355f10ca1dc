"""Incremental decoding with per-position adaptive depth.

Each token runs `model._walk`, the schedule walk `forward` runs, on a
one-token batch over a `DecodeCache` (defined in `model`, re-exported here)
with no tape: the head, then the cycles one at a time. After cycle n the
position's own zero-slot attention (averaged over heads, then over the
cycle's applications) is compared with the policy threshold, and the
first cycle that reaches it triggers an exit through the shared tail.
Per-slot K/V caches are positionally indexed (after row 0, the zero
token's, where the application has one); when a later position runs
deeper than an earlier one, the earlier position's skipped middle-cycle
entries are recomputed lazily (in position order, so every attention
read sees a complete prefix). A position's tail entry is written once, at
its own exit, and is never revised by later deepening; its emitted logits
are final.

The walk calls the blocks through `model`'s module globals, so wrappers
set there reach decode too: the benchmark's traced `generate` records
attention and FFN spans under request -2, which its per-request tables
drop.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import softmax_np
from .errors import ConfigError, UsageError
from .model import DecodeCache, ModelConfig, ModelParameters, _walk, token_ids
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


def decode_step(cache: DecodeCache, token_id: int, policy: ExitPolicy | None = None):
    """Process one token; returns (next-token logits (V,), cycles used).

    `model._walk` walks the schedule over the cache: before cycle n it
    deepens the earlier positions to n finished cycles. With an adaptive
    policy the position exits after the first cycle whose mean
    zero-attention reaches the threshold; fixed policies run every cycle.
    """
    policy = policy or ExitPolicy()
    config = cache.config
    config.check_exit_threshold(policy.threshold)
    if cache.n_pos >= config.t_max:
        raise UsageError(f"context is full at t_max={config.t_max} positions")
    exits, _, exit_at, _, _ = _walk(np.array([[token_id]]), cache.params, config, False, policy.threshold, cache)
    used = config.n_exits if exit_at is None else int(exit_at[0, 0])
    cache.n_pos += 1
    cache.cycles_used.append(used)
    return exits[-1].data[0, 0], used


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
