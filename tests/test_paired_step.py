"""The two-thread train step: both halves' sweeps add into one gradient set
in a fixed order, so the step is bitwise a one-thread oracle's, and a
failure on either side stops both before anything propagates."""
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from cycleformer import autodiff as ad
from cycleformer.autodiff import Tape
from cycleformer.config import RunConfig, model_config
from cycleformer.data import BatchPlan, ByteVocabulary, make_synthetic_corpus, next_batch
from cycleformer.errors import TrainingDiverged
from cycleformer.model import ModelConfig, forward, init_parameters, run_halves
from cycleformer.optim import AdamW
import cycleformer.train as train_mod
from cycleformer.train import METRICS_HEADER, MetricsWriter, TrainPlan, learning_rate_at, multi_exit_loss, train

HELPER = "cycleformer-walk"


def tiny_config():
    return ModelConfig(
        variant="ZTT", all_layers=3, loop_count=2, d_model=16, n_heads=2,
        d_ff=32, vocab=59, t_max=8, early_exit_heads=True,
    )


def tiny_corpus(n=600, seed=0):
    return np.random.default_rng(seed).integers(0, 59, size=n).astype(np.int64)


def on_helper() -> bool:
    return threading.current_thread().name == HELPER


def grads_at_update(monkeypatch, steps: list) -> None:
    """Append, at each step's finiteness check, a copy of every gradient."""
    inner = train_mod._check_grads_finite

    def spy(params, step, loss):
        steps.append({name: np.array(p.grad) for name, p in params.items()})
        return inner(params, step, loss)

    monkeypatch.setattr(train_mod, "_check_grads_finite", spy)


def oracle_step_grads(cfg, params, plan, ids, step=0, first=0):
    """One step's gradients on one thread: per micro-batch, both halves'
    tapes, swept alternately record by record, half `first` first."""
    named = params.named()
    for p in named.values():
        p.grad = None
    bp = BatchPlan(seq_len=cfg.t_max, batch=plan.batch, seed=plan.seed)
    for micro in range(plan.grad_accum):
        inputs, targets = next_batch(bp, ids, step * plan.grad_accum + micro)
        b = len(inputs)
        tapes = []
        for rows in (slice(0, b // 2), slice(b // 2, b)):
            with Tape() as tape:
                res = forward(inputs[rows], params, cfg, capture_exits=True)
                loss, _ = multi_exit_loss(res.exit_logits, targets[rows])
                scaled = ad.scale(loss, len(inputs[rows]) / (b * plan.grad_accum))
            scaled.grad = np.ones((), scaled.data.dtype)
            tapes.append(tape._records)
        order = tapes if first == 0 else tapes[::-1]
        while tapes[0]:
            for records in order:
                out, slots, rule = records.pop()
                g, out.grad = out.grad, None
                if g is None:
                    continue
                for slot, gi in zip(slots, rule(g), strict=True):
                    if slot is None:
                        continue
                    if slot.grad is None:
                        slot.grad = np.array(gi)
                    else:
                        slot.grad += gi
    return {name: np.array(p.grad) for name, p in named.items()}


def slowed_rules(monkeypatch, side_is_helper: bool, seconds: float = 0.002) -> None:
    """Every block and LM-head rule on one side sleeps first."""
    inner = ad.layer_norm_grad

    def slow(*args):
        if on_helper() == side_is_helper:
            time.sleep(seconds)
        return inner(*args)

    monkeypatch.setattr(ad, "layer_norm_grad", slow)


@pytest.mark.parametrize("batch, grad_accum", [(8, 1), (3, 1), (4, 2)])
@pytest.mark.parametrize("schedule", ["plain", "fast switching", "slow caller", "slow helper"])
def test_two_thread_step_is_bitwise_the_alternating_oracle(monkeypatch, batch, grad_accum, schedule):
    cfg = tiny_config()
    ids = tiny_corpus(seed=batch)
    plan = TrainPlan(steps=2, batch=batch, grad_accum=grad_accum, seed=11)
    steps = []
    grads_at_update(monkeypatch, steps)
    if schedule == "slow caller" or schedule == "slow helper":
        slowed_rules(monkeypatch, side_is_helper=schedule == "slow helper")
    interval = sys.getswitchinterval()
    if schedule == "fast switching":
        sys.setswitchinterval(1e-6)
    try:
        train(cfg, plan, ids, stop_step=1)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.undo()
    want = oracle_step_grads(cfg, init_parameters(cfg, seed=plan.seed), plan, ids)
    (got,) = steps
    assert got.keys() == want.keys()
    for name, g in got.items():
        np.testing.assert_array_equal(g, want[name], err_msg=name)
    if schedule == "plain" and grad_accum == 1:
        # The order is what the oracle pins: the other order moves bits.
        other = oracle_step_grads(cfg, init_parameters(cfg, seed=plan.seed), plan, ids, first=1)
        assert any(not np.array_equal(other[n], want[n]) for n in want)


@pytest.mark.parametrize("batch", [4, 3])
def test_two_thread_step_matches_whole_batch_gradients_in_float64(monkeypatch, batch):
    cfg = tiny_config()
    ids = tiny_corpus(seed=20 + batch)
    plan = TrainPlan(steps=1, batch=batch, seed=5)
    steps = []
    grads_at_update(monkeypatch, steps)
    train(cfg, plan, ids, params=init_parameters(cfg, seed=plan.seed, dtype=np.float64))
    (got,) = steps

    params = init_parameters(cfg, seed=plan.seed, dtype=np.float64)
    inputs, targets = next_batch(BatchPlan(seq_len=cfg.t_max, batch=batch, seed=plan.seed), ids, 0)
    with Tape() as tape:
        loss, _ = multi_exit_loss(forward(inputs, params, cfg, capture_exits=True).exit_logits, targets)
    ad.backward(tape, loss)
    for name, p in params.named().items():
        assert got[name].dtype == np.float64
        np.testing.assert_allclose(got[name], p.grad, rtol=1e-9, err_msg=name)


def test_concurrent_train_calls_share_the_helper_and_keep_their_bits():
    # Four callers on two cores queue their second halves on the one helper;
    # each pair's turns wait only on its own partner, so none deadlocks and
    # every run keeps its single-caller bits.
    cfg = tiny_config()
    plans = [TrainPlan(steps=2, batch=b, seed=30 + b) for b in (2, 3, 4, 5)]
    want = [train(cfg, plan, tiny_corpus(seed=plan.seed)).params.named() for plan in plans]
    got, errors = {}, []

    def caller(i):
        try:
            got[i] = train(cfg, plans[i], tiny_corpus(seed=plans[i].seed)).params.named()
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for i, named in enumerate(want):
        for name, t in named.items():
            np.testing.assert_array_equal(got[i][name].data, t.data, err_msg=name)


def test_paired_sweeps_of_a_record_that_lists_a_parameter_twice():
    # Two tapes paired outside `train`: w * w lists w twice in one record,
    # and each side adds both its terms in its one turn at that record.
    w = ad.parameter(np.arange(1.0, 5.0), dtype=np.float64)

    def recorded(scale):
        with Tape() as tape:
            loss = ad.sum_all(ad.scale(ad.mul(w, w), scale))
        return tape, loss

    halves = [recorded(1.0), recorded(2.0)]
    halves[0][0].pair(halves[1][0])
    assert run_and_join(lambda: run_halves(lambda half: ad.backward(*half), *halves)) is None
    np.testing.assert_allclose(w.grad, 6.0 * w.data, rtol=1e-15)


def test_the_helper_half_runs_under_the_callers_numpy_error_state():
    def overflow(x):
        return np.float32(x) * np.float32(1e30)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        run_halves(overflow, 1.0, 1e30)  # only the helper's half overflows
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_halves(overflow, 1.0, 1e30)[1] == np.inf


def run_and_join(fn, timeout=60.0):
    """fn() on a thread of its own, joined with a timeout: its exception, or
    None."""
    box = {}

    def target():
        try:
            fn()
        except BaseException as exc:  # reported by the caller
            box["exc"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "a half was left waiting"
    return box.get("exc")


class Boom(Exception):
    pass


def in_flight(monkeypatch, name: str) -> list:
    """Count the calls of train's `name` still running on any thread."""
    inner = getattr(train_mod, name)
    running = [0]
    lock = threading.Lock()

    def counted(*args, **kwargs):
        with lock:
            running[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(train_mod, name, counted)
    return running


@pytest.mark.parametrize("phase", ["forward", "rule"])
@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failing_half_stops_both_and_leaves_the_step_untouched(monkeypatch, phase, failing):
    cfg = tiny_config()
    ids = tiny_corpus(seed=3)
    plan = TrainPlan(steps=2, batch=4, seed=9)
    params = init_parameters(cfg, seed=plan.seed)
    optimizer = AdamW(params.named(), weight_decay=plan.weight_decay)
    before = {k: t.data.copy() for k, t in params.named().items()}

    def fails_here():
        return on_helper() == (failing == "helper")

    with monkeypatch.context() as m:
        if phase == "forward":
            inner = train_mod.forward
            walking = threading.Event()

            def faulty(*args, **kwargs):
                if fails_here():
                    walking.wait(10)
                    raise Boom
                walking.set()
                time.sleep(0.2)  # the other half is still walking when Boom is raised
                return inner(*args, **kwargs)

            m.setattr(train_mod, "forward", faulty)
        else:
            inner = ad.layer_norm_grad
            calls = [0]

            def faulty(*args):
                if fails_here():
                    calls[0] += 1
                    if calls[0] == 3:
                        raise Boom
                else:
                    time.sleep(0.01)  # the other sweep is mid-way when Boom is raised
                return inner(*args)

            m.setattr(ad, "layer_norm_grad", faulty)
        running = in_flight(m, "forward" if phase == "forward" else "backward")
        at_raise = []

        def step():
            try:
                train(cfg, plan, ids, params=params, optimizer=optimizer, stop_step=1)
            finally:
                at_raise.append(running[0])

        assert isinstance(run_and_join(step), Boom)
        assert at_raise == [0]  # both halves had stopped when train raised

    assert optimizer.t == 0
    for name, t in params.named().items():
        np.testing.assert_array_equal(t.data, before[name], err_msg=name)
        assert not optimizer.m[name].any() and not optimizer.v[name].any()

    # The next step is right: the failed one left nothing behind.
    train(cfg, plan, ids, params=params, optimizer=optimizer, stop_step=1)
    fresh = train(cfg, plan, ids, stop_step=1)
    for name, t in fresh.params.named().items():
        np.testing.assert_array_equal(params.named()[name].data, t.data, err_msg=name)
        np.testing.assert_array_equal(optimizer.m[name], fresh.optimizer.m[name], err_msg=name)
        np.testing.assert_array_equal(optimizer.v[name], fresh.optimizer.v[name], err_msg=name)


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_nan_loss_in_either_half_raises_before_either_sweep(monkeypatch, failing):
    cfg = tiny_config()
    plan = TrainPlan(steps=2, batch=4, seed=9)
    params = init_parameters(cfg, seed=plan.seed)
    before = {k: t.data.copy() for k, t in params.named().items()}
    inner_loss = train_mod.multi_exit_loss
    swept = []

    def nan_loss(logits, targets):
        loss, per_exit = inner_loss(logits, targets)
        if on_helper() == (failing == "helper"):
            loss.data = np.asarray(np.nan, loss.data.dtype)
        return loss, per_exit

    monkeypatch.setattr(train_mod, "multi_exit_loss", nan_loss)
    monkeypatch.setattr(train_mod, "backward", lambda tape, loss: swept.append(tape))
    exc = run_and_join(lambda: train(cfg, plan, tiny_corpus(seed=3), params=params))
    assert isinstance(exc, TrainingDiverged) and exc.step == 0 and math.isnan(exc.loss)
    assert swept == []
    for name, t in params.named().items():
        assert t.grad is None, name
        np.testing.assert_array_equal(t.data, before[name], err_msg=name)


def test_a_canonical_two_thread_step_holds_no_second_gradient_set():
    # The halves add into the parameters' one gradient set in turns, so a
    # step's traced peak stays near the one-thread whole-batch step's; a
    # second gradient set would add every parameter's size (3.2 MB) to it.
    cfg = model_config(RunConfig(early_exit_heads=True))
    ids = ByteVocabulary().encode(make_synthetic_corpus(20000, seed=0))
    plan = TrainPlan(steps=100, batch=8, seed=0)
    params = init_parameters(cfg, seed=plan.seed)
    optimizer = AdamW(params.named(), weight_decay=plan.weight_decay)
    bp = BatchPlan(seq_len=cfg.t_max, batch=plan.batch, seed=plan.seed)

    def one_thread_step(step):
        optimizer.zero_grad()
        inputs, targets = next_batch(bp, ids, step)
        with Tape() as tape:
            res = forward(inputs, params, cfg, capture_exits=True)
            loss, _ = multi_exit_loss(res.exit_logits, targets)
            scaled = ad.scale(loss, 1.0)
        del res
        ad.backward(tape, scaled)
        optimizer.step(learning_rate_at(step, plan))

    def two_thread_step(step):
        train(cfg, plan, ids, params=params, optimizer=optimizer, start_step=step, stop_step=step + 1)

    def traced_peak(step_fn, step):
        tracemalloc.start()
        try:
            step_fn(step)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    two_thread_step(0)  # warm-up: starts the helper, allocates first gradients
    one_thread_step(1)
    # Where the two sweeps' rule temporaries coincide depends on scheduling,
    # so each side's lowest of a few steps; a second set is in every step.
    one = min(traced_peak(one_thread_step, step) for step in (2, 3))
    two = min(traced_peak(two_thread_step, step) for step in (4, 5, 6))
    assert two <= 1.05 * one, (two, one)


def test_odd_batch_telemetry_weights_each_half_by_its_windows(tmp_path):
    cfg = tiny_config()
    ids = tiny_corpus(seed=8)
    plan = TrainPlan(steps=1, batch=3, seed=4, log_interval=1)
    path = os.fspath(tmp_path / "metrics.csv")
    with MetricsWriter(path) as metrics:
        train(cfg, plan, ids, metrics=metrics)
    header = METRICS_HEADER.split(",")
    rows = [dict(zip(header, r.split(","))) for r in open(path).read().splitlines()[1:]]

    params = init_parameters(cfg, seed=plan.seed)
    inputs, targets = next_batch(BatchPlan(seq_len=cfg.t_max, batch=3, seed=plan.seed), ids, 0)
    with Tape():  # a recording forward walks the whole batch on one thread
        whole = forward(inputs, params, cfg, capture_exits=True)
        _, per_exit = multi_exit_loss(whole.exit_logits, targets)
    logged_exits = {int(r["exit"]): float(r["loss"]) for r in rows if r["exit"]}
    assert logged_exits == pytest.approx(dict(enumerate(per_exit, start=1)), rel=1e-5)
    for field, column in (("zero_attn", "zero_attn_mean"), ("gate", "gate_mean")):
        logged = {int(r["cycle"]): float(r[column]) for r in rows if r["cycle"]}
        want = getattr(whole, field)
        assert logged.keys() == want.keys() == {1, 2}
        for cycle, value in logged.items():
            assert value == pytest.approx(sum(want[cycle]) / len(want[cycle]), rel=1e-5)

    # The halves (1 and 2 windows) differ enough that the unweighted mean of
    # their losses misses the whole batch's by more than the tolerance above.
    with Tape():
        halves = [multi_exit_loss(forward(inputs[r], params, cfg, capture_exits=True).exit_logits, targets[r])[1]
                  for r in (slice(0, 1), slice(1, 3))]
    assert (halves[0][0] + halves[1][0]) / 2 != pytest.approx(per_exit[0], rel=1e-4)
