"""Teacher-forced evaluation and the fixed-budget layout sweep.

Evaluation reads logits from batched forwards, two per window group of two
or more windows, and does all scoring in float64 numpy, so a report is a
pure function of (weights, data, policy). The adaptive report scores
`forward`'s adaptive logits: each position exits where incremental decode
would and is scored with the logits decode would emit, so threshold 1
reproduces the final-exit numbers exactly, token for token.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adaptive import ExitPolicy
from .config import RunConfig, model_config
from .data import check_ids_fit, window_count
from .errors import ConfigError, DataError
from .model import ModelConfig, ModelParameters, aggregate, forward, merge_halves, param_count, split_batch
from .train import plan_from_run, train


@dataclass(frozen=True)
class ExitEval:
    exit_index: int  # 1-based cycle; the last one is the full network
    loss: float
    ppl: float


@dataclass(frozen=True)
class AdaptiveEval:
    threshold: float
    loss: float
    ppl: float
    avg_loop: float
    exit_counts: tuple[int, ...]  # positions exiting at cycle 1..N


@dataclass(frozen=True)
class CycleStat:
    cycle: int
    zero_attn: float | None
    gate: float | None


@dataclass
class EvalReport:
    exits: list[ExitEval]
    cycles: list[CycleStat]
    adaptive: AdaptiveEval | None
    n_tokens: int
    n_batches: int

    @property
    def loss(self) -> float:
        return self.exits[-1].loss

    @property
    def ppl(self) -> float:
        return self.exits[-1].ppl


def _ppl(nll: float) -> float:
    return float(np.exp(min(nll, 700.0)))


def _nll(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-token negative log likelihood, computed in float64 in one (B, T, V)
    buffer: shifted in place, the targets' logits picked, then exp in place."""
    x = logits.astype(np.float64)
    x -= x.max(axis=-1, keepdims=True)
    picked = np.take_along_axis(x, targets[..., None], axis=-1)[..., 0]
    lse = np.log(np.exp(x, out=x).sum(axis=-1))
    return lse - picked


def _score(inputs, targets, params, config, policy: ExitPolicy) -> tuple:
    """One window group's (or half's) forward, scored on the calling thread:
    (each exit's per-token NLL, the adaptive per-token NLL and exit_cycle or
    None, zero_attn, gate). The logits die here."""
    res = forward(inputs, params, config, capture_exits=True, exit_threshold=policy.threshold)
    per_exit = [_nll(e.data, targets) for e in res.exit_logits]
    ada = None if res.adaptive_logits is None else _nll(res.adaptive_logits.data, targets)
    return per_exit, ada, res.exit_cycle, res.zero_attn, res.gate


def evaluate(
    params: ModelParameters,
    config: ModelConfig,
    ids: np.ndarray,
    policy: ExitPolicy | None = None,
    batch: int = 8,
    max_batches: int | None = None,
) -> EvalReport:
    """Score every full window of `ids` at teacher-forced positions.

    A group of B >= 2 windows runs in two halves at the same time
    (`model.split_batch`): windows ..B//2 on the calling thread and B//2..
    on the helper, each half's forward and float64 scoring on its own
    thread. Only a half's per-token NLL arrays, exit cycles and per-cycle
    means come back; no logits are joined. The NLL arrays are concatenated
    in window order before they are summed, so the sums are those of the
    whole group's arrays. Per-cycle zero-attention and gate means weight
    each half by its windows (`model.merge_halves`), then each group by its
    tokens."""
    if batch < 1 or (max_batches is not None and max_batches < 1):
        raise ConfigError(f"batch and max_batches must be >= 1, got {batch} and {max_batches}")
    policy = policy or ExitPolicy()
    t = config.t_max
    ids = np.asarray(ids)  # widened to int64 per window group, not as a whole
    check_ids_fit(ids, config.vocab, "data")
    n_win = window_count(len(ids), t)
    if n_win < 1:
        raise DataError(f"need at least {t + 1} tokens for one window, got {len(ids)}")
    n_exits = config.n_exits
    nll_sum = np.zeros(n_exits, dtype=np.float64)
    ada_sum = 0.0
    exit_counts = np.zeros(config.loop_count, dtype=np.int64)
    zattn_sum: dict[int, float] = {}
    gate_sum: dict[int, float] = {}
    n_tok = 0
    n_batches = 0
    for start in range(0, n_win, batch):
        if max_batches is not None and n_batches >= max_batches:
            break
        stop = min(start + batch, n_win) * t
        inputs = ids[start * t : stop].reshape(-1, t).astype(np.int64, copy=False)
        targets = ids[start * t + 1 : stop + 1].reshape(-1, t).astype(np.int64, copy=False)
        halves, ns = split_batch(lambda x, y: _score(x, y, params, config, policy), inputs, targets)
        per_exits, adas, exit_cycles, zattns, gates = zip(*halves)
        toks = targets.size
        per_exit = np.stack([np.concatenate(parts) for parts in zip(*per_exits)])
        nll_sum += per_exit.sum(axis=(1, 2))
        for sums, maps in ((zattn_sum, zattns), (gate_sum, gates)):
            for cycle, v in merge_halves(ns, maps).items():
                sums[cycle] = sums.get(cycle, 0.0) + aggregate(v) * toks
        if policy.adaptive:
            ada_sum += np.concatenate(adas).sum()
            exit_counts += np.bincount(np.concatenate(exit_cycles).ravel() - 1, minlength=config.loop_count)
        n_tok += toks
        n_batches += 1
    exits = [
        ExitEval(i + 1, nll_sum[i] / n_tok, _ppl(nll_sum[i] / n_tok)) for i in range(n_exits)
    ]
    cycles = sorted(set(zattn_sum) | set(gate_sum))
    stats = [
        CycleStat(
            c,
            zattn_sum[c] / n_tok if c in zattn_sum else None,
            gate_sum[c] / n_tok if c in gate_sum else None,
        )
        for c in cycles
    ]
    ada = None
    if policy.adaptive:
        loops = int(exit_counts @ np.arange(1, config.loop_count + 1))
        ada = AdaptiveEval(
            policy.threshold, ada_sum / n_tok, _ppl(ada_sum / n_tok), loops / n_tok,
            tuple(int(c) for c in exit_counts),
        )
    return EvalReport(exits, stats, ada, n_tok, n_batches)


# ---------------------------------------------------------------------------
# fixed parameter budget: which (layers, loops) pairs spend it


def enumerate_layouts(budget: int, variant: str) -> list[tuple[int, int]]:
    """All (all_layers, loop_count) whose effective depth equals `budget`.

    Cycled variants require loop_count >= 2 (one pass is just the vanilla
    stack); head-tail variants write depth as 2 + (L-2)*N.
    """
    if budget < 1:
        raise ConfigError(f"depth budget must be >= 1, got {budget}")
    if variant == "V":
        return [(budget, 1)]
    if variant == "BC":
        return [(l, budget // l) for l in range(1, budget + 1) if budget % l == 0 and budget // l >= 2]
    if variant in ("HTC", "ZTT"):
        out = []
        for l in range(3, budget + 1):
            body = budget - 2
            if body % (l - 2) == 0 and body // (l - 2) >= 2:
                out.append((l, body // (l - 2)))
        return out
    raise ConfigError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class SweepRow:
    variant: str
    all_layers: int
    loop_count: int
    seed: int
    n_params: int
    train_loss: float
    eval_loss: float
    eval_ppl: float


def budget_sweep(
    budget: int,
    variants: list[str],
    train_ids: np.ndarray,
    eval_ids: np.ndarray,
    base: RunConfig,
    seeds: tuple[int, ...] = (0,),
    layouts: dict[str, list[tuple[int, int]]] | None = None,
) -> list[SweepRow]:
    """Train each variant at every layout that fills the depth budget.

    All rows share base's width, data and step count, so differences come
    from how the budget is spent, not from tuning. An infeasible variant
    fails before anything trains.
    """
    todo = [(v, (layouts or {}).get(v) or enumerate_layouts(budget, v)) for v in variants]
    for variant, picks in todo:
        if not picks:
            raise ConfigError(f"no feasible layout spends depth {budget} on variant {variant}")
    rows: list[SweepRow] = []
    for variant, picks in todo:
        for l, n in picks:
            for seed in seeds:
                rc = replace(
                    base, variant=variant, all_layers=l, loop_count=n, seed=seed,
                    use_gate=None, use_zero_token=None, share_middle=False,
                )
                cfg = model_config(rc)
                plan = plan_from_run(rc)
                result = train(cfg, plan, train_ids)
                report = evaluate(result.params, cfg, eval_ids, batch=rc.batch)
                rows.append(
                    SweepRow(
                        variant, l, n, seed, param_count(cfg)["total"],
                        float(np.mean(result.losses[-10:])), report.loss, report.ppl,
                    )
                )
    return rows


def format_sweep(rows: list[SweepRow]) -> str:
    header = f"{'variant':<8}{'layers':>7}{'loops':>7}{'seed':>6}{'params':>10}{'train':>9}{'eval':>9}{'ppl':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.variant:<8}{r.all_layers:>7}{r.loop_count:>7}{r.seed:>6}{r.n_params:>10}"
            f"{r.train_loss:>9.4f}{r.eval_loss:>9.4f}{r.eval_ppl:>10.2f}"
        )
    return "\n".join(lines)
