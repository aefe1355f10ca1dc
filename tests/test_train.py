"""Training loop: schedule shape, loss plumbing, determinism, resume."""
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleformer import autodiff as ad
from cycleformer.autodiff import Tape
from cycleformer.data import BatchPlan, make_synthetic_corpus, next_batch
from cycleformer.errors import ConfigError, TrainingDiverged
from cycleformer.model import ModelConfig, forward, init_parameters
from cycleformer.optim import AdamW
import cycleformer
import cycleformer.train as train_mod
from cycleformer.train import (
    METRICS_HEADER,
    MetricsWriter,
    TrainPlan,
    learning_rate_at,
    multi_exit_loss,
    train,
)

from reference_blocks import use_reference_blocks


def tiny_config(**kw):
    base = dict(
        variant="ZTT", all_layers=3, loop_count=2, d_model=16, n_heads=2,
        d_ff=32, vocab=59, t_max=8, early_exit_heads=True,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_corpus(n=600, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 59, size=n).astype(np.int64)


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_schedule_pinned_values():
    plan = TrainPlan(steps=100, lr=1.0, warmup_frac=0.1)
    assert learning_rate_at(0, plan) == 0.0
    assert learning_rate_at(5, plan) == pytest.approx(0.5)
    assert learning_rate_at(10, plan) == pytest.approx(1.0)  # warmup peak
    # halfway through decay: cos(pi/2) = 0
    assert learning_rate_at(55, plan) == pytest.approx(0.5)
    assert 0.0 < learning_rate_at(99, plan) < 0.01


def test_schedule_rises_then_decays():
    plan = TrainPlan(steps=60, lr=2.5e-3, warmup_frac=0.2)
    values = [learning_rate_at(s, plan) for s in range(60)]
    warmup = 12
    assert all(b > a for a, b in zip(values[:warmup], values[1 : warmup + 1]))
    assert all(b <= a for a, b in zip(values[warmup:], values[warmup + 1 :]))
    assert max(values) == pytest.approx(2.5e-3)


@given(st.integers(min_value=1, max_value=500), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60)
def test_schedule_bounded(steps, frac):
    plan = TrainPlan(steps=steps, lr=1e-3, warmup_frac=frac)
    for s in range(0, steps, max(1, steps // 7)):
        assert 0.0 <= learning_rate_at(s, plan) <= plan.lr + 1e-12


def test_plan_validation():
    with pytest.raises(ConfigError):
        TrainPlan(steps=0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="lr"):
            TrainPlan(steps=1, lr=bad)
    for bad in (-5.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="weight_decay"):
            TrainPlan(steps=1, weight_decay=bad)
    with pytest.raises(ConfigError):
        TrainPlan(steps=1, warmup_frac=1.5)


@pytest.mark.parametrize("log_interval", [0, -1])
def test_plan_rejects_log_interval_below_one(log_interval):
    # log_interval=0 used to fail with ZeroDivisionError after one optimizer step.
    with pytest.raises(ConfigError, match="log_interval"):
        TrainPlan(steps=3, log_interval=log_interval)


# ---------------------------------------------------------------------------
# multi-exit loss


def test_multi_exit_loss_is_weighted_mean_of_exit_nll():
    cfg = tiny_config()
    params = init_parameters(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    ids = rng.integers(0, cfg.vocab, size=(2, 6))
    targets = rng.integers(0, cfg.vocab, size=(2, 6))
    res = forward(ids, params, cfg, capture_exits=True)
    assert len(res.exit_logits) == cfg.loop_count

    total, per_exit = multi_exit_loss(res.exit_logits, targets)
    assert total.item() == pytest.approx(sum(per_exit) / len(per_exit), rel=1e-12)


def test_multi_exit_loss_routes_gradient_to_every_exit():
    # a weight used only by the intermediate exit's branch (the tail record is
    # shared, so perturbing exit weights must reach cycled-layer parameters)
    cfg = tiny_config()
    params = init_parameters(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(2)
    ids = rng.integers(0, cfg.vocab, size=(1, 5))
    targets = rng.integers(0, cfg.vocab, size=(1, 5))
    with Tape() as tape:
        res = forward(ids, params, cfg, capture_exits=True)
        loss, _ = multi_exit_loss(res.exit_logits[:1], targets)  # the intermediate exit alone
    ad.backward(tape, loss)
    mid = params.record(2)
    assert mid.wq.grad is not None and np.abs(mid.wq.grad).max() > 0


# ---------------------------------------------------------------------------
# the reverse sweep on a whole model


def _model_batch(cfg, seed=0):
    params = init_parameters(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.vocab, size=(4, cfg.t_max))
    targets = rng.integers(0, cfg.vocab, size=(4, cfg.t_max))
    return params, ids, targets


def test_parameter_gradients_never_share_memory():
    cfg = tiny_config(d_model=32, n_heads=4, t_max=16)
    params, ids, targets = _model_batch(cfg)
    with Tape() as tape:
        res = forward(ids, params, cfg, capture_exits=True)
        loss, _ = multi_exit_loss(res.exit_logits, targets)
    ad.backward(tape, loss)
    grads = [(name, p.grad) for name, p in params.named().items() if p.grad is not None]
    assert len(grads) == len(params.named())
    for i, (name_a, ga) in enumerate(grads):
        for name_b, gb in grads[i + 1:]:
            assert not np.shares_memory(ga, gb), (name_a, name_b)


_MEMORY_CONFIG = dict(all_layers=4, loop_count=3, d_model=32, n_heads=4, d_ff=128, vocab=259, t_max=16)


def test_backward_peak_memory_stays_near_the_forward():
    # The sweep frees each record's activations and each consumed gradient as
    # it goes, so backward's peak sits near what the forward left alive
    # instead of adding every gradient on top of every activation.
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    tracemalloc.start()
    try:
        with Tape() as tape:
            res = forward(ids, params, cfg, capture_exits=True)
            loss, _ = multi_exit_loss(res.exit_logits, targets)
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * after_forward, (peak, after_forward)


def _taped_forward(cfg, params, ids, targets):
    """Tape and loss of one multi-exit forward; every other reference the
    forward made is gone when this returns."""
    with Tape() as tape:
        res = forward(ids, params, cfg, capture_exits=True)
        loss, _ = multi_exit_loss(res.exit_logits, targets)
    return tape, loss


def _bound_values(fn):
    """Everything `fn` binds in its closure and defaults, and, through any
    function it binds, what that function binds."""
    out, todo, seen = [], [fn], set()
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for v in [cell.cell_contents for cell in f.__closure__ or ()] + list(f.__defaults__ or ()):
            out.append(v)
            if isinstance(v, types.FunctionType):
                todo.append(v)
    return out


def test_tape_rules_bind_arrays_never_tensors():
    # A rule that closes over a Tensor keeps that op's whole output alive
    # until the sweep reaches it, whether or not its formula reads it.
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    tape, _ = _taped_forward(cfg, params, ids, targets)
    rules = [rule for _, _, rule in tape._records]
    assert rules
    for rule in rules:
        assert not any(isinstance(v, ad.Tensor) for v in _bound_values(rule)), rule.__qualname__


def test_ffn_rules_bind_no_gelu_sized_array():
    # The FFN rule rebuilds the (B*T, d_ff) GELU input from the layer norm
    # output; it must not keep one alive on the tape.
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    tape, _ = _taped_forward(cfg, params, ids, targets)
    rules = [rule for _, _, rule in tape._records if rule.__qualname__.startswith("gated_ffn.")]
    # head, 2 cycled layers x 3 cycles, tail, and the tail again per intermediate exit
    assert len(rules) == 8 + 2
    gelu_shape = (ids.size, cfg.d_ff)
    for rule in rules:
        shapes = [v.shape for v in _bound_values(rule) if isinstance(v, np.ndarray)]
        assert shapes and gelu_shape not in shapes, shapes


def test_gated_ffn_rules_bind_no_output_sized_array():
    # The gated FFN rule rebuilds the (B*T, d) ungated output from the GELU
    # buffer it already rebuilds; it must not keep one alive on the tape.
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    tape, _ = _taped_forward(cfg, params, ids, targets)
    rules = [rule for _, _, rule in tape._records if rule.__qualname__.startswith("gated_ffn.")]
    gate_shape, out_shape = (ids.size, 1), (ids.size, cfg.d_model)
    gated = [rule for rule in rules if any(
        isinstance(v, np.ndarray) and v.shape == gate_shape for v in _bound_values(rule))]
    assert gated
    for rule in gated:
        shapes = [v.shape for v in _bound_values(rule) if isinstance(v, np.ndarray)]
        assert out_shape not in shapes, shapes


def test_attention_scores_die_with_the_forward(monkeypatch):
    # No rule reads the scores a softmax turns into attention weights, so
    # they must be freed once the forward returns, while the tape lives on.
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    ad.backward(*_taped_forward(cfg, params, ids, targets))
    expected = {name: p.grad.copy() for name, p in params.named().items()}
    for p in params.named().values():
        p.grad = None

    scores = []
    inner = ad.softmax_np

    def spy(x, axis=-1, out=None):
        if x.ndim == 4:  # (batch, head, query, key): attention scores
            scores.append(weakref.ref(x))
        return inner(x, axis=axis, out=out)

    monkeypatch.setattr(ad, "softmax_np", spy)
    tape, loss = _taped_forward(cfg, params, ids, targets)
    # head, 2 cycled layers x 3 cycles and tail on the main stream, plus
    # the tail again for each of the 2 intermediate exits
    assert len(scores) == 8 + 2
    assert all(ref() is None for ref in scores)
    ad.backward(tape, loss)
    for name, p in params.named().items():
        np.testing.assert_array_equal(p.grad, expected[name], err_msg=name)


def test_attention_rules_bind_no_weight_sized_array():
    # The attention rule rebuilds its weights from the rebuilt q and k; it
    # must not keep a (B, heads, T, T+1) array alive on the tape.
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    tape, _ = _taped_forward(cfg, params, ids, targets)
    rules = [rule for _, _, rule in tape._records if rule.__qualname__.startswith("attention_with_zero_token.")]
    # head, 2 cycled layers x 3 cycles, tail, and the tail again per intermediate exit
    assert len(rules) == 8 + 2
    b, t = ids.shape
    weight_shapes = {(b, cfg.n_heads, t, t), (b, cfg.n_heads, t, t + 1)}
    for rule in rules:
        shapes = {v.shape for v in _bound_values(rule) if isinstance(v, np.ndarray)}
        assert shapes and not shapes & weight_shapes, shapes


def test_attention_weights_die_with_the_forward(monkeypatch):
    # The attention rule rebuilds its weights in backward, so the softmax
    # buffers the forward made must be freed once the forward returns, while
    # the tape lives on, and the gradients keep their bits.
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    ad.backward(*_taped_forward(cfg, params, ids, targets))
    expected = {name: p.grad.copy() for name, p in params.named().items()}
    for p in params.named().values():
        p.grad = None

    weights = []
    inner = ad.softmax_np

    def spy(x, axis=-1, out=None):
        w = inner(x, axis=axis, out=out)
        if w.ndim == 4:  # (batch, head, query, key): attention weights
            weights.append(weakref.ref(w))
        return w

    monkeypatch.setattr(ad, "softmax_np", spy)
    tape, loss = _taped_forward(cfg, params, ids, targets)
    monkeypatch.undo()
    # head, 2 cycled layers x 3 cycles and tail on the main stream, plus
    # the tail again for each of the 2 intermediate exits
    assert len(weights) == 8 + 2
    assert all(ref() is None for ref in weights)
    ad.backward(tape, loss)
    for name, p in params.named().items():
        np.testing.assert_array_equal(p.grad, expected[name], err_msg=name)


def test_gelu_input_dies_with_the_forward(monkeypatch):
    # The FFN rule rebuilds the GELU input in backward, so the forward's
    # copy must be freed once the forward returns, while the tape lives on,
    # and the gradients keep their bits.
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    ad.backward(*_taped_forward(cfg, params, ids, targets))
    expected = {name: p.grad.copy() for name, p in params.named().items()}
    for p in params.named().values():
        p.grad = None

    inputs = []
    inner = ad._gelu_tanh

    def spy(x):
        # The FFN hands over row chunks of its (B*T, d_ff) GELU input.
        if x.base is not None and (not inputs or inputs[-1]() is not x.base):
            inputs.append(weakref.ref(x.base))
        return inner(x)

    monkeypatch.setattr(ad, "_gelu_tanh", spy)
    tape, loss = _taped_forward(cfg, params, ids, targets)
    monkeypatch.undo()
    # head, 2 cycled layers x 3 cycles and tail on the main stream, plus
    # the tail again for each of the 2 intermediate exits
    assert len(inputs) == 8 + 2
    assert all(ref() is None for ref in inputs)
    ad.backward(tape, loss)
    for name, p in params.named().items():
        np.testing.assert_array_equal(p.grad, expected[name], err_msg=name)


def _held_after_taped_forward(cfg, params, ids, targets, monkeypatch):
    """Bytes the tape keeps alive after a multi-exit forward, and the bytes
    of every owned output of a recorded op."""
    owned = []
    inner = ad._finish

    def spy(out, rule, *inputs):
        out = inner(out, rule, *inputs)
        if out.grad_needed and out.data.flags.owndata:
            owned.append(out.data.nbytes)
        return out

    with monkeypatch.context() as m:
        m.setattr(ad, "_finish", spy)
        tracemalloc.start()
        try:
            tape, loss = _taped_forward(cfg, params, ids, targets)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert owned
    return held, sum(owned)


def test_tape_holds_no_more_than_the_op_outputs(monkeypatch):
    # What the forward leaves alive is what backward reads. Rules save
    # `xhat`/`inv` rather than a layer norm's output, a softmax its output
    # rather than its input, ..., so the total stays below the bytes of
    # every owned op output (1.36x of them while records held the Tensors).
    # Checked on the blocks built op by op, where every op has an output.
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    use_reference_blocks(monkeypatch)
    held, owned = _held_after_taped_forward(cfg, params, ids, targets, monkeypatch)
    assert held <= 1.0 * owned, (held, owned)


def test_block_records_hold_less_than_the_op_chain(monkeypatch):
    # A fused block record drops the layer norm outputs, the queries, keys
    # and values, the attention weights, the head-merged attention mix and
    # the GELU input, output and tanh term, which its rule rebuilds (0.226x
    # of the op-by-op tape at this size).
    cfg = tiny_config(**_MEMORY_CONFIG)
    params, ids, targets = _model_batch(cfg)
    fused, _ = _held_after_taped_forward(cfg, params, ids, targets, monkeypatch)
    use_reference_blocks(monkeypatch)
    per_op, _ = _held_after_taped_forward(cfg, params, ids, targets, monkeypatch)
    assert fused <= 0.24 * per_op, (fused, per_op)


# ---------------------------------------------------------------------------
# metrics stream


def test_metrics_header_and_append(tmp_path):
    path = os.fspath(tmp_path / "m.csv")
    with MetricsWriter(path) as m:
        m.row(0, "train", exit=1, loss=2.5, ppl=12.18, lr=1e-3)
        m.row(0, "train", cycle=1, zero_attn_mean=0.21, gate_mean=0.9, lr=1e-3)
        with pytest.raises(TypeError, match="zero_attn"):
            m.row(0, "train", zero_attn=0.21)  # a column is named by its header
    with MetricsWriter(path, append=True) as m:
        m.row(1, "valid", loss=2.4, ppl=11.0, avg_loop=1.5)
    lines = open(path).read().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 4
    assert all(len(line.split(",")) == len(METRICS_HEADER.split(",")) for line in lines)
    assert lines[1].startswith("0,train,1,2.5,12.18,,,")
    assert dict(zip(METRICS_HEADER.split(","), lines[3].split(",")))["avg_loop"] == "1.5"
    # append to a fresh path still writes the header
    path2 = os.fspath(tmp_path / "m2.csv")
    with MetricsWriter(path2, append=True) as m:
        m.row(0, "train", loss=1.0)
    assert open(path2).read().splitlines()[0] == METRICS_HEADER


def test_metrics_header_ends_with_the_timing_columns():
    assert METRICS_HEADER.split(",")[-4:] == ["avg_loop", "step_ms", "tok_s", "grad_norm"]


def test_metrics_append_onto_another_header_raises(tmp_path):
    path = tmp_path / "old.csv"
    old = "step,split,exit,loss,ppl,cycle,zero_attn_mean,gate_mean,lr,avg_loop\n0,train,1,2.5,,,,,,\n"
    path.write_text(old)
    with pytest.raises(ConfigError, match="old.csv"):
        MetricsWriter(os.fspath(path), append=True)
    assert path.read_text() == old


# ---------------------------------------------------------------------------
# the loop itself


def test_train_reduces_loss_and_logs(tmp_path):
    cfg = tiny_config()
    plan = TrainPlan(steps=30, batch=4, lr=3e-3, warmup_frac=0.1, seed=0, log_interval=10)
    ids = tiny_corpus()
    path = os.fspath(tmp_path / "metrics.csv")
    with MetricsWriter(path) as metrics:
        result = train(cfg, plan, ids, metrics=metrics)
    assert result.steps_done == 30
    assert len(result.losses) == 30
    assert np.mean(result.losses[-5:]) < result.losses[0]
    rows = open(path).read().splitlines()
    assert rows[0] == METRICS_HEADER
    steps_seen = {int(r.split(",")[0]) for r in rows[1:]}
    assert {0, 10, 20, 29} <= steps_seen
    # per-cycle rows carry the cycle's zero-attention and gate means
    assert any(r.split(",")[5] != "" and r.split(",")[6] != "" for r in rows[1:])


def test_training_is_bitwise_deterministic():
    cfg = tiny_config()
    plan = TrainPlan(steps=8, batch=2, lr=1e-3, seed=4)
    ids = tiny_corpus(seed=4)
    a = train(cfg, plan, ids)
    b = train(cfg, plan, ids)
    assert a.losses == b.losses
    for name, t in a.params.named().items():
        np.testing.assert_array_equal(t.data, b.params.named()[name].data, err_msg=name)


def test_train_step_from_uint16_ids_is_bitwise_the_int64_step():
    cfg = tiny_config()
    plan = TrainPlan(steps=1, batch=2, lr=1e-3, seed=4)
    ids = tiny_corpus(seed=4)
    a = train(cfg, plan, ids)
    b = train(cfg, plan, ids.astype(np.uint16))
    assert a.losses == b.losses
    for name, t in a.params.named().items():
        np.testing.assert_array_equal(t.data, b.params.named()[name].data, err_msg=name)


def test_grad_accum_matches_larger_batch():
    # batch 4 / accum 1 and batch 2 / accum 2 consume the same windows and
    # average to the same update, up to summation order
    cfg = tiny_config()
    ids = tiny_corpus(seed=7)
    results = []
    for batch, accum in ((4, 1), (2, 2)):
        params = init_parameters(cfg, seed=11, dtype=np.float64)
        plan = TrainPlan(steps=4, batch=batch, grad_accum=accum, lr=1e-3, seed=11)
        results.append(train(cfg, plan, ids, params=params))
    for name, t in results[0].params.named().items():
        np.testing.assert_allclose(
            t.data, results[1].params.named()[name].data, rtol=1e-9, atol=1e-11, err_msg=name
        )


def test_resume_continues_identical_trajectory():
    cfg = tiny_config()
    ids = tiny_corpus(seed=3)
    full_plan = TrainPlan(steps=10, batch=2, lr=2e-3, seed=5)
    full = train(cfg, full_plan, ids)

    head = train(cfg, full_plan, ids, stop_step=5)
    assert head.steps_done == 5
    resumed = train(
        cfg, full_plan, ids, params=head.params, optimizer=head.optimizer, start_step=5
    )
    assert len(resumed.losses) == 5
    assert full.losses[5:] == resumed.losses
    for name, t in full.params.named().items():
        np.testing.assert_array_equal(t.data, resumed.params.named()[name].data, err_msg=name)


def test_nan_loss_aborts_with_step():
    cfg = tiny_config()
    params = init_parameters(cfg, seed=0)
    params.tok_emb.data[0, 0] = np.nan
    plan = TrainPlan(steps=3, batch=2, seed=0)
    with pytest.raises(TrainingDiverged) as exc:
        train(cfg, plan, tiny_corpus(), params=params)
    assert exc.value.step == 0
    assert exc.value.param is None


def test_exit_logits_are_freed_before_backward(monkeypatch):
    # No rule reads the logits (cross_entropy saves its own log-softmax),
    # so they must not be held across the reverse sweep. Each half of the
    # batch runs its forward and its sweep on its own thread.
    cfg = tiny_config()
    last_logits = {}
    entered = []
    real_forward, real_backward = train_mod.forward, train_mod.backward

    def forward_spy(*args, **kwargs):
        res = real_forward(*args, **kwargs)
        last_logits[threading.current_thread().name] = weakref.ref(res.exit_logits[-1].data)
        return res

    def backward_spy(tape, loss):
        name = threading.current_thread().name
        entered.append((name, last_logits[name]() is None))
        real_backward(tape, loss)

    monkeypatch.setattr(train_mod, "forward", forward_spy)
    monkeypatch.setattr(train_mod, "backward", backward_spy)
    train(cfg, TrainPlan(steps=2, batch=2, grad_accum=2, seed=0), tiny_corpus())
    assert sorted(entered) == [("MainThread", True)] * 4 + [("cycleformer-walk", True)] * 4


def test_nonfinite_gradient_aborts_before_the_update(monkeypatch):
    cfg = tiny_config()
    params = init_parameters(cfg, seed=0)
    optimizer = AdamW(params.named())
    before = {k: t.data.copy() for k, t in params.named().items()}
    real_backward = train_mod.backward

    def backward_with_nan(tape, loss):
        real_backward(tape, loss)
        params.record(1).w1.grad[0, 0] = np.nan

    monkeypatch.setattr(train_mod, "backward", backward_with_nan)
    plan = TrainPlan(steps=3, batch=2, seed=0)
    with pytest.raises(TrainingDiverged, match="gradient") as exc:
        train(cfg, plan, tiny_corpus(), params=params, optimizer=optimizer)
    assert exc.value.step == 0
    assert math.isfinite(exc.value.loss)
    assert exc.value.param == "layer1.ffn.w1"
    assert optimizer.t == 0
    for name, t in params.named().items():
        np.testing.assert_array_equal(t.data, before[name], err_msg=name)
        assert not optimizer.m[name].any() and not optimizer.v[name].any()


def test_logged_rows_carry_step_time_and_grad_norm(tmp_path):
    cfg = tiny_config()
    ids = tiny_corpus(seed=4)
    plan = TrainPlan(steps=3, batch=2, seed=5, log_interval=2)
    path = os.fspath(tmp_path / "metrics.csv")
    with MetricsWriter(path) as metrics:
        train(cfg, plan, ids, metrics=metrics)
    header = METRICS_HEADER.split(",")
    rows = [dict(zip(header, r.split(","))) for r in open(path).read().splitlines()[1:]]
    assert {int(r["step"]) for r in rows} == {0, 2}
    for r in rows:
        step_ms, tok_s = float(r["step_ms"]), float(r["tok_s"])
        assert step_ms > 0 and float(r["grad_norm"]) > 0
        assert tok_s == pytest.approx(plan.batch * cfg.t_max / (step_ms / 1e3), rel=1e-4)

    # step 0's norm, from the same batch on the same initial weights
    params = init_parameters(cfg, seed=plan.seed)
    inputs, targets = next_batch(BatchPlan(seq_len=cfg.t_max, batch=plan.batch, seed=plan.seed), ids, 0)
    with Tape() as tape:
        res = forward(inputs, params, cfg, capture_exits=True)
        loss, _ = multi_exit_loss(res.exit_logits, targets)
    ad.backward(tape, loss)
    expected = math.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params.named().values()))
    for r in rows:
        if r["step"] == "0":
            assert float(r["grad_norm"]) == pytest.approx(expected, rel=1e-5)


def test_logged_steps_write_each_groups_update_to_weight_rms_ratio(tmp_path, monkeypatch):
    cfg = tiny_config()
    ids = tiny_corpus(seed=6)
    plan = TrainPlan(steps=5, batch=2, seed=7, log_interval=2)
    calls = []
    inner = train_mod._update_ratios

    def spy(params, before):
        calls.append(len(before))
        return inner(params, before)

    monkeypatch.setattr(train_mod, "_update_ratios", spy)
    train(cfg, plan, ids)  # no metrics writer: no step pays for the ratios
    assert calls == []
    path = os.fspath(tmp_path / "metrics.csv")
    with MetricsWriter(path) as metrics:
        train(cfg, plan, ids, metrics=metrics)
    assert len(calls) == 3  # steps 0, 2 and 4 only

    header = METRICS_HEADER.split(",")
    rows = [dict(zip(header, r.split(","))) for r in open(path).read().splitlines()[1:]]
    groups = [r for r in rows if r["group"]]
    by_step = {}
    for r in groups:
        assert r["update_ratio"] and float(r["grad_norm"]) > 0 and r["lr"]
        by_step.setdefault(int(r["step"]), {})[r["group"]] = float(r["update_ratio"])
    assert sorted(by_step) == [0, 2, 4]
    expected = ["final_norm", "layer1", "layer2", "layer3", "pos_emb", "tok_emb", "zero_key"]
    assert all(sorted(g) == expected for g in by_step.values())

    # Step 2's ratio for a group, from the weights around that update.
    params = init_parameters(cfg, seed=plan.seed)
    optimizer = AdamW(params.named(), weight_decay=plan.weight_decay)
    train(cfg, plan, ids, params=params, optimizer=optimizer, stop_step=2)
    w0 = {k: p.data.copy() for k, p in params.named().items() if k.startswith("layer2.")}
    train(cfg, plan, ids, params=params, optimizer=optimizer, start_step=2, stop_step=3)
    du = sum(float(np.square(params.named()[k].data - w, dtype=np.float64).sum()) for k, w in w0.items())
    ww = sum(float(np.square(w, dtype=np.float64).sum()) for w in w0.values())
    assert by_step[2]["layer2"] == pytest.approx(math.sqrt(du / ww), rel=1e-5)
    assert 0 < by_step[2]["layer2"] < 1


def test_grad_accum_logs_telemetry_of_every_micro_batch(tmp_path):
    cfg = tiny_config()
    ids = tiny_corpus(seed=2)
    plan = TrainPlan(steps=1, batch=2, grad_accum=2, seed=3, log_interval=1)
    path = os.fspath(tmp_path / "metrics.csv")
    with MetricsWriter(path) as metrics:
        train(cfg, plan, ids, metrics=metrics)
    header = METRICS_HEADER.split(",")
    rows = [dict(zip(header, r.split(","))) for r in open(path).read().splitlines()[1:]]

    params = init_parameters(cfg, seed=plan.seed)
    bp = BatchPlan(seq_len=cfg.t_max, batch=plan.batch, seed=plan.seed)
    per_micro = [
        forward(next_batch(bp, ids, micro)[0], params, cfg, capture_exits=True) for micro in range(2)
    ]
    for field, column in (("zero_attn", "zero_attn_mean"), ("gate", "gate_mean")):
        logged = {int(r["cycle"]): float(r[column]) for r in rows if r["cycle"]}
        first, second = (getattr(res, field) for res in per_micro)
        assert logged.keys() == first.keys() == {1, 2}
        for cycle, value in logged.items():
            # The mean over both micro-batches' applications of the cycle.
            want = sum(first[cycle] + second[cycle]) / (len(first[cycle]) + len(second[cycle]))
            assert value == pytest.approx(want, rel=1e-5)


def test_train_vanilla_single_exit():
    cfg = ModelConfig(
        variant="V", all_layers=2, loop_count=1, d_model=16, n_heads=2,
        d_ff=32, vocab=59, t_max=8,
    )
    result = train(cfg, TrainPlan(steps=6, batch=2, lr=2e-3, seed=1), tiny_corpus(seed=1))
    assert len(result.losses) == 6
    assert all(math.isfinite(v) for v in result.losses)


def test_a_canonical_train_step_leaves_one_helper_thread():
    # A step of one window runs on the caller alone and starts no thread; a
    # canonical step runs its second half on the one helper thread, which
    # stays for later steps. A fresh interpreter, so no earlier test has
    # started the helper already.
    code = (
        "import threading\n"
        "from cycleformer.config import RunConfig, model_config\n"
        "from cycleformer.data import ByteVocabulary, make_synthetic_corpus\n"
        "from cycleformer.train import TrainPlan, train\n"
        "cfg = model_config(RunConfig(early_exit_heads=True))\n"
        "ids = ByteVocabulary().encode(make_synthetic_corpus(4000, seed=0))\n"
        "train(cfg, TrainPlan(steps=1, batch=1), ids)\n"
        "print(threading.active_count())\n"
        "for _ in range(2):\n"
        "    train(cfg, TrainPlan(steps=1, batch=8), ids)\n"
        "    print(sorted(t.name for t in threading.enumerate()))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cycleformer.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["1"] + ["['MainThread', 'cycleformer-walk']"] * 2
