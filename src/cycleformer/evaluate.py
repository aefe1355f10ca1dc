"""Teacher-forced evaluation and the fixed-budget layout sweep.

Evaluation reads logits from one batched forward per window group and does
all scoring in float64 numpy, so a report is a pure function of (weights,
data, policy). The adaptive report selects an exit per position from the
same zero-attention traces the incremental decoder sees (the cache tests
establish the two views agree), so threshold 1 reproduces the final-exit
numbers exactly, token for token.

The adaptive loss is not decode's loss, though. It scores a position that
exits after cycle n with the batch exit-n logits, whose tail attends to
every position's cycle-n state; decode's tail reads each earlier position's
own exit-state row. On the benchmark's fixed checkpoint, first validation
window, threshold 0.5, both pick the same exit per position (13/18/33 over
cycles 1/2/3) but score 0.9993 vs 0.9974 nat/tok, with logits up to 0.21
apart.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adaptive import ExitPolicy
from .config import RunConfig, model_config
from .data import check_ids_fit
from .errors import ConfigError, DataError
from .model import ModelConfig, ModelParameters, forward, param_count
from .telemetry import CycleTelemetry, aggregate
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
    """Per-token negative log likelihood, computed in float64."""
    x = logits.astype(np.float64)
    x = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(x).sum(axis=-1))
    picked = np.take_along_axis(x, targets[..., None], axis=-1)[..., 0]
    return lse - picked


def _position_traces(telemetry: CycleTelemetry, aggregation: str) -> np.ndarray:
    """(B, T, N) zero-attention aggregate per position and cycle."""
    per_cycle = telemetry.values_by_cycle("zero_attn_pos").values()
    return np.stack([aggregate(apps, aggregation) for apps in per_cycle], axis=-1)


def evaluate(
    params: ModelParameters,
    config: ModelConfig,
    ids: np.ndarray,
    policy: ExitPolicy | None = None,
    batch: int = 8,
    max_batches: int | None = None,
) -> EvalReport:
    """Score every full window of `ids` at teacher-forced positions."""
    if batch < 1 or (max_batches is not None and max_batches < 1):
        raise ConfigError(f"batch and max_batches must be >= 1, got {batch} and {max_batches}")
    policy = policy or ExitPolicy()
    adaptive = policy.adaptive
    if adaptive and not config.supports_adaptive_exit:
        raise ConfigError(
            "adaptive evaluation needs zero-token attention on a head-tail cycled variant"
        )
    t = config.t_max
    ids = np.asarray(ids, dtype=np.int64)
    check_ids_fit(ids, config.vocab, "data")
    n_win = (len(ids) - 1) // t
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
        windows = range(start, min(start + batch, n_win))
        inputs = np.stack([ids[w * t : w * t + t] for w in windows])
        targets = np.stack([ids[w * t + 1 : w * t + t + 1] for w in windows])
        res = forward(inputs, params, config, capture_exits=True)
        toks = targets.size
        per_exit = np.stack([_nll(e.data, targets) for e in res.exit_logits])
        nll_sum += per_exit.sum(axis=(1, 2))
        for cycle, z in res.telemetry.zero_attn_by_cycle().items():
            zattn_sum[cycle] = zattn_sum.get(cycle, 0.0) + z * toks
        for cycle, g in res.telemetry.gate_by_cycle().items():
            gate_sum[cycle] = gate_sum.get(cycle, 0.0) + g * toks
        if adaptive:
            traces = _position_traces(res.telemetry, policy.aggregation)
            n = config.loop_count
            # first cycle at or past threshold; 0-based exit index, full depth if none
            crossed = traces >= policy.threshold
            chosen = np.where(crossed.any(axis=-1), crossed.argmax(axis=-1), n - 1)
            ada_sum += per_exit[chosen, np.arange(inputs.shape[0])[:, None], np.arange(t)].sum()
            exit_counts += np.bincount(chosen.ravel(), minlength=n)
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
    if adaptive:
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
    from how the budget is spent, not from tuning.
    """
    rows: list[SweepRow] = []
    for variant in variants:
        picks = (layouts or {}).get(variant) or enumerate_layouts(budget, variant)
        if not picks:
            raise ConfigError(f"no feasible layout spends depth {budget} on variant {variant}")
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
