"""Training: AdamW with warmup+cosine schedule, multi-exit loss, CSV metrics.

A run is a pure function of (config, plan, corpus): parameter init, batch
order and the schedule all derive from plan.seed, and resuming from a saved
step continues the identical trajectory because the optimizer moments and
step counter travel with the checkpoint.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .config import RunConfig
from .data import BatchPlan, check_ids_fit, next_batch
from .errors import ConfigError, TrainingDiverged
from .model import ModelConfig, ModelParameters, aggregate, forward, init_parameters, run_halves
from .optim import AdamW

METRICS_COLUMNS = (
    "step", "split", "exit", "loss", "ppl", "cycle", "zero_attn_mean", "gate_mean",
    "group", "update_ratio", "lr", "avg_loop", "step_ms", "tok_s", "grad_norm",
)
METRICS_HEADER = ",".join(METRICS_COLUMNS)


@dataclass(frozen=True)
class TrainPlan:
    steps: int
    batch: int = 8
    grad_accum: int = 1
    lr: float = 1e-3
    warmup_frac: float = 0.01
    weight_decay: float = 0.01
    seed: int = 0
    log_interval: int = 50

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch < 1 or self.grad_accum < 1:
            raise ConfigError("batch and grad_accum must be >= 1")
        if not 0 < self.lr < math.inf:  # NaN too
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.seed < 0:  # numpy's generators take only non-negative seeds
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ConfigError(f"warmup_frac must be in [0, 1], got {self.warmup_frac}")
        if self.log_interval < 1:
            raise ConfigError(f"log_interval must be >= 1, got {self.log_interval}")


def plan_from_run(rc: RunConfig) -> TrainPlan:
    """TrainPlan from the RunConfig fields of the same name; the rest keep their defaults."""
    names = {f.name for f in fields(TrainPlan)}
    return TrainPlan(**{f.name: getattr(rc, f.name) for f in fields(rc) if f.name in names})


def learning_rate_at(step: int, plan: TrainPlan) -> float:
    """Linear warmup from 0 over warmup_frac of the run, then cosine to ~0."""
    warmup = max(1, int(round(plan.warmup_frac * plan.steps)))
    if step < warmup:
        return plan.lr * step / warmup
    if plan.steps <= warmup:
        return plan.lr
    progress = (step - warmup) / (plan.steps - warmup)
    return plan.lr * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))


def multi_exit_loss(exit_logits: list[Tensor], targets: np.ndarray) -> tuple[Tensor, list[float]]:
    """Mean over exits of each exit's mean NLL.

    Gradients flow through every exit; intermediate exits share the tail and
    head, so deep supervision reaches the cycled block at every depth.
    """
    w = 1.0 / len(exit_logits)
    flat_targets = targets.reshape(-1)
    total = None
    per_exit: list[float] = []
    for logits in exit_logits:
        v = logits.shape[-1]
        flat = ad.reshape(logits, (-1, v)) if logits.data.ndim == 3 else logits
        ce = ad.cross_entropy(flat, flat_targets)
        per_exit.append(ce.item())
        term = ad.scale(ce, w)
        total = term if total is None else ad.add(total, term)
    return total, per_exit


class MetricsWriter:
    """Append-friendly CSV stream with one fixed header, `METRICS_COLUMNS`.

    Appending to a file whose header is not `METRICS_HEADER` (one written by
    an older version, say) raises ConfigError instead of misaligning rows.
    """

    def __init__(self, path: str, append: bool = False):
        self.path = path
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if append and exists:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                header = fh.readline().rstrip("\r\n")
            if header != METRICS_HEADER:
                raise ConfigError(
                    f"metrics file {path} has header {header!r}, expected {METRICS_HEADER!r}; "
                    "write to a new file"
                )
        self._fh = open(path, "a" if append else "w", encoding="utf-8")
        if not (append and exists):
            self._fh.write(METRICS_HEADER + "\n")

    @staticmethod
    def _fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{float(value):.6g}"

    def row(self, step: int, split: str, **cells) -> None:
        """One line; `cells` maps the other columns' names to values, and a
        column left out is written empty."""
        columns = METRICS_COLUMNS[2:]
        unknown = sorted(cells.keys() - columns)
        if unknown:
            raise TypeError(f"unknown metrics columns {unknown}")
        line = [str(step), split, *(self._fmt(cells.get(c)) for c in columns)]
        self._fh.write(",".join(line) + "\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class TrainResult:
    params: ModelParameters
    optimizer: AdamW
    losses: list[float] = field(default_factory=list)
    steps_done: int = 0


def _log_step(metrics, step, per_exit, zattn: dict, gates: dict, ratios: dict, **shared):
    """Write a step's per-exit, per-cycle and per-group rows; `zattn` and
    `gates` map a cycle to its applications' means, `shared` (lr and the
    step's timing and grad norm) goes on every row."""
    for i, loss in enumerate(per_exit, start=1):
        metrics.row(step, "train", exit=i, loss=loss, ppl=math.exp(min(loss, 30.0)), **shared)
    for cycle in zattn or gates:
        metrics.row(
            step, "train", cycle=cycle, zero_attn_mean=aggregate(zattn[cycle]) if cycle in zattn else None,
            gate_mean=aggregate(gates[cycle]) if cycle in gates else None, **shared,
        )
    for group, ratio in ratios.items():
        metrics.row(step, "train", group=group, update_ratio=ratio, **shared)
    metrics.flush()


def _update_ratios(params: dict[str, Tensor], before: dict[str, np.ndarray]) -> dict[str, float | None]:
    """Per parameter group (the name up to its first "."), the RMS of this
    step's update over the RMS of the weights before it, summed in float64;
    None for a group whose weights were all zero."""
    sums: dict[str, list[float]] = {}
    for name, p in params.items():
        acc = sums.setdefault(name.split(".", 1)[0], [0.0, 0.0])
        acc[0] += float(np.square(p.data - before[name], dtype=np.float64).sum())
        acc[1] += float(np.square(before[name], dtype=np.float64).sum())
    return {group: math.sqrt(du / w) if w else None for group, (du, w) in sorted(sums.items())}


def _grad_norm(params: dict[str, Tensor]) -> float:
    """L2 norm over every parameter gradient, summed in float64."""
    return math.sqrt(sum(
        float(np.square(p.grad, dtype=np.float64).sum()) for p in params.values() if p.grad is not None
    ))


def _check_grads_finite(params: dict[str, Tensor], step: int, loss: float) -> None:
    """Raise TrainingDiverged before a non-finite gradient reaches the
    optimizer, whose moments would otherwise carry it into every later step."""
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise TrainingDiverged(step, loss, param=name)


def _weighted(weights, values) -> float:
    """The mean of `values` weighted by `weights`; a lone value as it is."""
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def _record_half(inputs, targets, params, config, weight) -> tuple:
    """A half's forward, multi-exit loss and loss scaled by `weight` under its
    own tape: (tape, scaled, loss, per-exit losses, zero_attn, gate)."""
    with Tape() as tape:
        res = forward(inputs, params, config, capture_exits=config.early_exit_heads)
        loss, per_exit = multi_exit_loss(res.exit_logits, targets)
        scaled = ad.scale(loss, weight)
    return tape, scaled, loss.item(), per_exit, res.zero_attn, res.gate  # the logits die here


def _sweep_half(tape: Tape, loss: Tensor) -> None:
    """`backward` on one half's paired tape. Any error, also one raised by a
    wrapper of `backward` before its sweep starts, stops the pair, so the
    other half does not wait for a turn forever."""
    try:
        backward(tape, loss)
    except BaseException:
        tape.stop_pair()
        raise


def train(
    config: ModelConfig,
    plan: TrainPlan,
    train_ids: np.ndarray,
    params: ModelParameters | None = None,
    optimizer: AdamW | None = None,
    start_step: int = 0,
    stop_step: int | None = None,
    metrics: MetricsWriter | None = None,
) -> TrainResult:
    """Run optimizer updates for steps [start_step, stop_step or plan.steps).

    The batch order and learning-rate schedule are functions of the absolute
    step and the full plan, so a run split at any step and resumed from its
    checkpoint retraces the uninterrupted trajectory bit for bit.

    A micro-batch of B >= 2 windows runs windows ..B//2 on the calling
    thread and B//2.. on the helper (`model.run_halves`), each under its own
    tape with its loss scaled by its share and checked before either sweep;
    the sweeps add into one gradient set in turns (`autodiff.backward`).
    Logged means weight each half by its windows. B = 1 runs on the caller.
    """
    check_ids_fit(train_ids, config.vocab, "corpus")
    if params is None:
        params = init_parameters(config, seed=plan.seed)
    named = params.named()
    if optimizer is None:
        optimizer = AdamW(named, weight_decay=plan.weight_decay)
    bp = BatchPlan(seq_len=config.t_max, batch=plan.batch, seed=plan.seed)
    end = plan.steps if stop_step is None else min(stop_step, plan.steps)
    losses: list[float] = []
    tokens_per_step = plan.batch * plan.grad_accum * config.t_max
    for step in range(start_step, end):
        started = time.perf_counter()
        lr = learning_rate_at(step, plan)
        optimizer.zero_grad()
        step_loss = 0.0
        per_exit_acc: list[float] | None = None
        zattn: dict[int, list[float]] = {}
        gates: dict[int, list[float]] = {}
        for micro in range(plan.grad_accum):
            inputs, targets = next_batch(bp, train_ids, step * plan.grad_accum + micro)
            b = len(inputs)
            ns = [b // 2, b - b // 2] if b >= 2 else [b]
            jobs = [(inputs[o : o + n], targets[o : o + n], params, config, n / (b * plan.grad_accum))
                    for o, n in zip((0, b // 2), ns)]
            halves = run_halves(lambda job: _record_half(*job), *jobs) if b >= 2 else [_record_half(*jobs[0])]
            tapes, scaled, values, per_exits, zattns, gate_maps = zip(*halves)
            value = _weighted(ns, values)
            if not math.isfinite(value):
                raise TrainingDiverged(step, value)
            for merged, maps in ((zattn, zattns), (gates, gate_maps)):
                for cycle in maps[0]:
                    merged.setdefault(cycle, []).extend(_weighted(ns, v) for v in zip(*(m[cycle] for m in maps)))
            if b >= 2:
                tapes[0].pair(tapes[1])
                run_halves(lambda half: _sweep_half(*half), *zip(tapes, scaled))
            else:
                backward(tapes[0], scaled[0])
            step_loss += value / plan.grad_accum
            per_exit_acc = [a + _weighted(ns, xs) / plan.grad_accum
                            for a, xs in zip(per_exit_acc or [0.0] * len(per_exits[0]), zip(*per_exits))]
        _check_grads_finite(optimizer.params, step, step_loss)
        logged = metrics is not None and (step % plan.log_interval == 0 or step == plan.steps - 1)
        if logged:  # the step updates the weights in place
            before = {name: p.data.copy() for name, p in optimizer.params.items()}
        optimizer.step(lr)
        step_s = time.perf_counter() - started
        losses.append(step_loss)
        if logged:
            _log_step(
                metrics, step, per_exit_acc, zattn, gates, _update_ratios(optimizer.params, before),
                lr=lr, step_ms=step_s * 1e3, tok_s=tokens_per_step / step_s,
                grad_norm=_grad_norm(optimizer.params),
            )
    return TrainResult(params, optimizer, losses, steps_done=end)
