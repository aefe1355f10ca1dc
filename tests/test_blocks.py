"""Fused block records: one tape entry per attention and per FFN application.

`attention_with_zero_token` and `gated_ffn` must match the op-by-op chain of
standalone tape ops (tests/reference_blocks.py) bitwise in float32: outputs,
telemetry arrays and every input gradient, alone and inside a full
multi-exit forward. A float64 finite-difference check covers the fused rules
on their own.
"""
import numpy as np
import pytest

import cycleformer.autodiff as ad
import cycleformer.train as train_mod
from cycleformer.autodiff import Tape, backward, constant, parameter
from cycleformer.config import RunConfig, model_config
from cycleformer.data import ByteVocabulary, make_synthetic_corpus
from cycleformer.model import (
    ModelConfig,
    attention_with_zero_token,
    forward,
    gated_ffn,
    init_parameters,
)
from cycleformer.train import TrainPlan, multi_exit_loss, train

from gradcheck import check_grads
from reference_blocks import reference_attention, reference_ffn, use_reference_blocks

B, T, D, HEADS = 2, 5, 16, 4


def block_params(dtype, seed=0):
    """One layer's weights with every entry random, so no gradient is trivially
    zero, plus a zero-token key."""
    cfg = ModelConfig(variant="ZTT", all_layers=3, loop_count=2, d_model=D, n_heads=HEADS, d_ff=24)
    params = init_parameters(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    rec = params.record(2)
    for t in rec.tensors().values():
        t.data[...] = rng.normal(0.0, 0.5, size=t.shape)
    rec.ln1_g.data += 1.0
    rec.ln2_g.data += 1.0
    zkey = params.pool[(2, 1)]
    zkey.data[...] = rng.normal(0.0, 1.0, size=zkey.shape)
    return rec, zkey


def attention_case(zero_key):
    def run(block, h, rec, zkey):
        key = {"param": zkey, "constant": constant(zkey.data), "none": None}[zero_key]
        out, zattn, weights = block(h, rec, key, HEADS)
        return out, (zattn, weights.data), [zkey] if zero_key == "param" else []
    return run


def ffn_case(use_gate):
    def run(block, h, rec, zkey):
        out, gate = block(h, rec, use_gate)
        return out, (gate,), []
    return run


CASES = {
    "attention-zero-key": (attention_with_zero_token, reference_attention, attention_case("param")),
    "attention-constant-zero-key": (attention_with_zero_token, reference_attention, attention_case("constant")),
    "attention-no-zero-token": (attention_with_zero_token, reference_attention, attention_case("none")),
    "ffn-gate": (gated_ffn, reference_ffn, ffn_case(True)),
    "ffn-no-gate": (gated_ffn, reference_ffn, ffn_case(False)),
}


def block_loss(out, targets):
    return ad.cross_entropy(ad.reshape(out, (B * T, D)), targets)


def taped_block(block, case, h, rec, zkey, targets):
    """Output, telemetry arrays, tape length and each input's gradient."""
    named = {"h": h, **rec.tensors(), "zkey": zkey}
    for t in named.values():
        t.grad = None
    with Tape() as tape:
        out, extras, _ = case(block, h, rec, zkey)
        loss = block_loss(out, targets)
    records = len(tape)
    backward(tape, loss)
    grads = {name: None if t.grad is None else t.grad.copy() for name, t in named.items()}
    return out.data, extras, records, grads


@pytest.mark.parametrize("name", list(CASES))
def test_fused_record_matches_op_chain_bitwise(name):
    fused, reference, case = CASES[name]
    rec, zkey = block_params(np.float32)
    rng = np.random.default_rng(1)
    h = parameter(rng.normal(size=(B, T, D)), dtype=np.float32)
    targets = rng.integers(0, D, size=B * T)
    got = taped_block(fused, case, h, rec, zkey, targets)
    want = taped_block(reference, case, h, rec, zkey, targets)
    np.testing.assert_array_equal(got[0], want[0])
    for a, b in zip(got[1], want[1], strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)
    assert got[2] == 3  # the block's record, then the loss's reshape and cross-entropy
    assert got[3].keys() == want[3].keys()
    for key, g in got[3].items():
        if want[3][key] is None:
            assert g is None, key
        else:
            np.testing.assert_array_equal(g, want[3][key], err_msg=key)
    assert got[3]["h"] is not None
    assert (got[3]["zkey"] is not None) == (name == "attention-zero-key")


@pytest.mark.parametrize("name", list(CASES))
def test_fused_record_gradcheck_float64(name):
    fused, _, case = CASES[name]
    rec, zkey = block_params(np.float64, seed=3)
    rng = np.random.default_rng(4)
    h = parameter(rng.normal(size=(B, T, D)), dtype=np.float64)
    targets = rng.integers(0, D, size=B * T)

    def f():
        out, _, _ = case(fused, h, rec, zkey)
        return block_loss(out, targets)

    named = {"h": h, **rec.tensors(), **{"zkey": z for z in case(fused, h, rec, zkey)[2]}}
    failures = check_grads(f, named, rng=np.random.default_rng(5), max_entries_per_param=6)
    assert not failures, "\n".join(failures)


def multi_exit_grads(cfg, params, ids, targets):
    named = params.named()
    for p in named.values():
        p.grad = None
    with Tape() as tape:
        res = forward(ids, params, cfg, capture_exits=True)
        loss, _ = multi_exit_loss(res.exit_logits, targets)
    logits = [e.data for e in res.exit_logits]
    backward(tape, loss)
    return logits, {name: p.grad.copy() for name, p in named.items()}


@pytest.mark.parametrize("zero_key", [True, False])
def test_cached_attention_one_query_at_a_time_matches_the_batch_block(zero_key):
    # Decode's use of the block: one query per call at positions 0..T-1, each
    # writing its K/V row into the cache and attending over the rows so far.
    rec, zkey = block_params(np.float64)
    key = zkey if zero_key else None
    h = constant(np.random.default_rng(7).normal(size=(1, T, D)))
    want, want_z, _ = attention_with_zero_token(h, rec, key, HEADS)
    k_rows, v_rows = np.zeros((1, T + 2, D)), np.zeros((1, T + 2, D))
    for pos in range(T):
        out, z, _ = attention_with_zero_token(
            constant(h.data[:, pos : pos + 1]), rec, key, HEADS, cache=(k_rows, v_rows), start=pos
        )
        np.testing.assert_allclose(out.data[0, 0], want.data[0, pos], rtol=1e-12, atol=1e-12)
        if zero_key:
            np.testing.assert_allclose(z[0, :, 0], want_z[0, :, pos], rtol=1e-12, atol=1e-12)
    # With a zero token, row 0 holds its key and a zero value, and position p
    # is row p + 1; without one, position p is row p.
    first = 1 if zero_key else 0
    if zero_key:
        np.testing.assert_array_equal(k_rows[0, 0], zkey.data)
        assert not v_rows[0, 0].any()
    positions = slice(first, first + T)
    assert k_rows[0, positions].any(axis=1).all() and not k_rows[0, first + T :].any()
    assert v_rows[0, positions].any(axis=1).all() and not v_rows[0, first + T :].any()


@pytest.mark.parametrize("zero_key", [True, False])
def test_cached_attention_several_queries_past_start_match_the_batch_block(zero_key):
    # Positions 0-2, then 3-6, through one cache: the second call's three
    # queries each see the first call's rows and the rows of its own earlier
    # queries, as the batch block's causal mask allows.
    rec, zkey = block_params(np.float64)
    key = zkey if zero_key else None
    h = constant(np.random.default_rng(9).normal(size=(1, 7, D)))
    want, want_z, want_w = attention_with_zero_token(h, rec, key, HEADS)
    rows = (np.zeros((1, 8, D)), np.zeros((1, 8, D)))
    head, head_z, _ = attention_with_zero_token(
        constant(h.data[:, :3]), rec, key, HEADS, cache=rows, start=0
    )
    tail, tail_z, tail_w = attention_with_zero_token(
        constant(h.data[:, 3:]), rec, key, HEADS, cache=rows, start=3
    )
    got = np.concatenate([head.data, tail.data], axis=1)
    np.testing.assert_allclose(got, want.data, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(tail_w.data, want_w.data[:, :, 3:], rtol=1e-12, atol=1e-12)
    if zero_key:
        got_z = np.concatenate([head_z, tail_z], axis=-1)
        np.testing.assert_allclose(got_z, want_z, rtol=1e-12, atol=1e-12)


def test_multi_exit_forward_gradients_match_op_chain_bitwise(monkeypatch):
    # With exit heads each cycle's output feeds both the next cycle and the
    # exit branch, so a block input collects four gradient terms; the fused
    # records must add them in the per-op tape's order.
    cfg = ModelConfig(
        variant="ZTT", all_layers=4, loop_count=3, d_model=D, n_heads=HEADS, d_ff=24,
        vocab=31, t_max=8, early_exit_heads=True,
    )
    params = init_parameters(cfg, seed=7)
    rng = np.random.default_rng(8)
    ids = rng.integers(0, cfg.vocab, size=(3, 8))
    targets = rng.integers(0, cfg.vocab, size=(3, 8))
    got_logits, got = multi_exit_grads(cfg, params, ids, targets)
    with monkeypatch.context() as m:
        use_reference_blocks(m)
        want_logits, want = multi_exit_grads(cfg, params, ids, targets)
    assert len(got_logits) == len(want_logits) == 3
    for a, b in zip(got_logits, want_logits):
        np.testing.assert_array_equal(a, b)
    for name, g in got.items():
        np.testing.assert_array_equal(g, want[name], err_msg=name)


def test_canonical_train_step_tape_length_is_pinned(monkeypatch):
    # Embedding 5, ten block applications x 2, three LM heads x 5, the
    # multi-exit loss 11 and train's grad_accum scale 1 (406 records when
    # every block ran op by op).
    rc = RunConfig(early_exit_heads=True)
    cfg = model_config(rc)
    assert (cfg.variant, cfg.all_layers, cfg.loop_count, cfg.d_model) == ("ZTT", 4, 3, 128)
    lengths = []
    inner = train_mod.backward

    def spy(tape, loss):
        lengths.append(len(tape))
        return inner(tape, loss)

    monkeypatch.setattr(train_mod, "backward", spy)
    ids = ByteVocabulary().encode(make_synthetic_corpus(4000, seed=0))
    train(cfg, TrainPlan(steps=1, batch=8), ids)
    assert lengths == [52]
    assert lengths[0] <= 60
