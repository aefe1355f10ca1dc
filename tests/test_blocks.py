"""Fused block records: one tape entry for the embedding, one per attention
and per FFN application, and one per LM head.

`embed`, `attention_with_zero_token`, `gated_ffn` and `_lm_logits` must match the
op-by-op chain of standalone tape ops (tests/reference_blocks.py) bitwise in
float32: outputs, zero-attention and gate arrays and every input gradient,
alone and inside a full multi-exit forward. A float64 finite-difference
check covers the fused rules on their own.
"""
from dataclasses import replace

import numpy as np
import pytest

import cycleformer.autodiff as ad
import cycleformer.train as train_mod
from cycleformer.autodiff import Tape, backward, constant, parameter
from cycleformer.config import RunConfig, model_config
from cycleformer.data import ByteVocabulary, make_synthetic_corpus
from cycleformer.errors import UsageError
from cycleformer.model import (
    FFN_BLOCKS,
    ModelConfig,
    _lm_logits,
    attention_with_zero_token,
    embed,
    forward,
    gated_ffn,
    init_parameters,
)
from cycleformer.train import TrainPlan, multi_exit_loss, train

from gradcheck import check_grads
from reference_blocks import (
    reference_attention,
    reference_embed,
    reference_ffn,
    reference_lm_logits,
    use_reference_blocks,
)

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
        out, zattn = block(h, rec, key, HEADS)
        return out, (zattn,), [zkey] if zero_key == "param" else []
    return run


def ffn_case(use_gate):
    def run(block, h, rec, zkey):
        out, gate = block(h, rec if use_gate else replace(rec, gate_w=None, gate_b=None))
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
    return ad.cross_entropy(ad.reshape(out, (len(targets), D)), targets)


def taped_block(block, case, h, rec, zkey, targets):
    """Output, zero-attention or gate array, tape length and each input's gradient."""
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


def assert_fused_matches_op_chain(name, b, t):
    fused, reference, case = CASES[name]
    rec, zkey = block_params(np.float32)
    rng = np.random.default_rng(1)
    h = parameter(rng.normal(size=(b, t, D)), dtype=np.float32)
    targets = rng.integers(0, D, size=b * t)
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
def test_fused_record_matches_op_chain_bitwise(name):
    assert_fused_matches_op_chain(name, B, T)


@pytest.mark.parametrize("name", list(CASES))
def test_fused_record_matches_op_chain_across_ffn_chunks(name):
    # 150 rows: FFN row blocks of ceil(150 / 4) = 38 rows, three full and a
    # partial last one, so the GELU and its gradient cross block seams.
    b, t = 3, 50
    rows = -(-b * t // FFN_BLOCKS)
    assert b * t > rows * (FFN_BLOCKS - 1) and (b * t) % rows
    assert_fused_matches_op_chain(name, b, t)


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


VOCAB = 11


def head_params(dtype, tie, seed=0):
    """A model whose final norm and head weight are random in every entry."""
    cfg = ModelConfig(
        variant="V", all_layers=1, loop_count=1, d_model=D, n_heads=HEADS, d_ff=24,
        vocab=VOCAB, tie_embeddings=tie,
    )
    params = init_parameters(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 200)
    for t in (params.final_g, params.final_b, params.head_weight()):
        t.data[...] = rng.normal(0.0, 0.5, size=t.shape)
    params.final_g.data += 1.0
    return params


def head_loss(logits, targets):
    return ad.cross_entropy(ad.reshape(logits, (B * T, VOCAB)), targets)


@pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
def test_lm_head_record_matches_op_chain_bitwise(tie):
    params = head_params(np.float32, tie)
    rng = np.random.default_rng(2)
    h = parameter(rng.normal(size=(B, T, D)), dtype=np.float32)
    targets = rng.integers(0, VOCAB, size=B * T)
    named = {"h": h, **params.named()}

    def run(head):
        for t in named.values():
            t.grad = None
        with Tape() as tape:
            logits = head(h, params)
            loss = head_loss(logits, targets)
        records = len(tape)
        backward(tape, loss)
        return logits.data, records, {k: t.grad for k, t in named.items()}

    got_logits, got_records, got = run(_lm_logits)
    want_logits, want_records, want = run(reference_lm_logits)
    assert (got_records, want_records) == (3, 7)  # head, then the loss's reshape and cross-entropy
    np.testing.assert_array_equal(got_logits, want_logits)
    head = "tok_emb" if tie else "lm_head"
    for key in ("h", "final_norm.g", "final_norm.b", head):
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    # The head weight's gradient is the transposed view the chain returned.
    assert got[head].strides == want[head].strides
    assert all(got[k] is None for k in named.keys() - {"h", "final_norm.g", "final_norm.b", head})


@pytest.mark.parametrize("tie", [True, False], ids=["tied", "untied"])
def test_lm_head_record_gradcheck_float64(tie):
    params = head_params(np.float64, tie, seed=3)
    rng = np.random.default_rng(4)
    h = parameter(rng.normal(size=(B, T, D)), dtype=np.float64)
    targets = rng.integers(0, VOCAB, size=B * T)
    named = {"h": h, "final_norm.g": params.final_g, "final_norm.b": params.final_b,
             "head": params.head_weight()}
    failures = check_grads(
        lambda: head_loss(_lm_logits(h, params), targets), named,
        rng=np.random.default_rng(5), max_entries_per_param=6,
    )
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("start", [0, 2])
@pytest.mark.parametrize("batch", [1, 3], ids=["one-row", "batch"])
def test_embedding_record_matches_op_chain_bitwise(batch, start):
    # One row takes expand's no-sum path; several sum the batch into pos_emb.
    cfg = ModelConfig(
        variant="V", all_layers=1, loop_count=1, d_model=D, n_heads=HEADS, d_ff=24,
        vocab=VOCAB, t_max=T + start + 1,
    )
    params = init_parameters(cfg, seed=6)
    rng = np.random.default_rng(7)
    ids = rng.integers(0, VOCAB, size=(batch, T))
    ids[0, 1] = ids[0, 0]  # a repeated id: the token gradient scatter-adds
    targets = rng.integers(0, D, size=batch * T)
    named = {"tok_emb": params.tok_emb, "pos_emb": params.pos_emb}

    def run(emb):
        for t in named.values():
            t.grad = None
        with Tape() as tape:
            h = emb(ids, params, start)
            loss = ad.cross_entropy(ad.reshape(h, (batch * T, D)), targets)
        records = len(tape)
        backward(tape, loss)
        return h.data, records, {k: t.grad.copy() for k, t in named.items()}

    got_h, got_records, got = run(embed)
    want_h, want_records, want = run(reference_embed)
    assert (got_records, want_records) == (3, 7)  # embedding, then the loss's reshape and cross-entropy
    np.testing.assert_array_equal(got_h, want_h)
    for key in named:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    assert not got["pos_emb"][:start].any() and not got["pos_emb"][start + T :].any()


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
    want, want_z = attention_with_zero_token(h, rec, key, HEADS)
    k_rows, v_rows = np.zeros((1, T + 2, D)), np.zeros((1, T + 2, D))
    for pos in range(T):
        out, z = attention_with_zero_token(
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
    want, want_z = attention_with_zero_token(h, rec, key, HEADS)
    rows = (np.zeros((1, 8, D)), np.zeros((1, 8, D)))
    head, head_z = attention_with_zero_token(
        constant(h.data[:, :3]), rec, key, HEADS, cache=rows, start=0
    )
    tail, tail_z = attention_with_zero_token(
        constant(h.data[:, 3:]), rec, key, HEADS, cache=rows, start=3
    )
    got = np.concatenate([head.data, tail.data], axis=1)
    np.testing.assert_allclose(got, want.data, rtol=1e-12, atol=1e-12)
    if zero_key:
        got_z = np.concatenate([head_z, tail_z], axis=-1)
        np.testing.assert_allclose(got_z, want_z, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("start", [0, 3])
def test_cached_attention_refuses_to_record(start):
    # The rule rebuilds keys and values for a cache-free call at start 0, so
    # a cached call must not reach the tape; without a tape it runs.
    rec, zkey = block_params(np.float32)
    h = parameter(np.random.default_rng(10).normal(size=(1, 2, D)), dtype=np.float32)
    rows = (np.zeros((1, 6, D), np.float32), np.zeros((1, 6, D), np.float32))
    with Tape() as tape:
        with pytest.raises(UsageError, match="cached attention call cannot record"):
            attention_with_zero_token(h, rec, zkey, HEADS, cache=rows, start=start)
    assert len(tape) == 0
    out, _ = attention_with_zero_token(h, rec, zkey, HEADS, cache=rows, start=start)
    assert out.shape == (1, 2, D) and not out.grad_needed


def test_attention_past_start_needs_a_cache():
    rec, zkey = block_params(np.float32)
    h = constant(np.zeros((1, 2, D), np.float32))
    with pytest.raises(UsageError, match="needs a cache"):
        attention_with_zero_token(h, rec, zkey, HEADS, start=3)


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
    # One tape per half of the batch, each: embedding 1, ten block
    # applications x 2, three LM heads x 1, the multi-exit loss 11 and
    # train's scale by the half's share 1 (406 records when the embedding,
    # every block and every LM head ran op by op).
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
    assert lengths == [36, 36]
    assert max(lengths) <= 60
