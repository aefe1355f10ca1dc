"""Model forward: brute-force attention oracle, zero-token identities,
parameter accounting, retrofit equivalence, full-model gradient checks."""
import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import cycleformer.autodiff as ad
import cycleformer.model as model_mod
from cycleformer.autodiff import Tape, backward, constant, parameter, tensor
from cycleformer.adaptive import DecodeCache, ExitPolicy, decode_step
from cycleformer.config import RunConfig, model_config
from cycleformer.errors import ConfigError, DataError, ShapeError
from cycleformer.model import (
    ModelConfig,
    attention_with_zero_token,
    build_causal_mask,
    forward,
    gated_ffn,
    init_from_vanilla,
    init_parameters,
    param_count,
)

from gradcheck import check_grads
from reference_blocks import reference_attention_weights
from stepper import step_applications


def tiny(variant="ZTT", l=3, n=2, d=8, heads=2, dff=16, **kw):
    kw.setdefault("vocab", 11)
    kw.setdefault("t_max", 8)
    return ModelConfig(
        variant=variant, all_layers=l, loop_count=n, d_model=d, n_heads=heads, d_ff=dff, **kw
    )


# ---------------------------------------------------------------------------
# brute-force oracle: per-query loops, two-pass norm, explicit softmax


def oracle_attention(h, rec, zkey, n_heads, eps=1e-5):
    """Independent reimplementation with plain loops; returns (h_att, weights)."""
    b_sz, t_len, d = h.shape
    hd = d // n_heads
    g = rec.ln1_g.data
    be = rec.ln1_b.data
    wq, wk, wv, wo = rec.wq.data, rec.wk.data, rec.wv.data, rec.wo.data
    n_keys = t_len + (1 if zkey is not None else 0)
    weights = np.zeros((b_sz, n_heads, t_len, n_keys))
    out = np.empty_like(h)
    for b in range(b_sz):
        xn = np.empty((t_len, d))
        for t in range(t_len):
            row = h[b, t]
            mu = sum(row) / d
            var = sum((v - mu) ** 2 for v in row) / d
            xn[t] = (row - mu) / math.sqrt(var + eps) * g + be
        q, k, v = xn @ wq, xn @ wk, xn @ wv
        for t in range(t_len):
            mixed = np.zeros(d)
            for i in range(n_heads):
                sl = slice(i * hd, (i + 1) * hd)
                logits = []
                vals = []
                if zkey is not None:
                    logits.append(float(np.dot(q[t, sl], zkey[sl])) / math.sqrt(hd))
                    vals.append(np.zeros(hd))
                for j in range(t + 1):
                    logits.append(float(np.dot(q[t, sl], k[j, sl])) / math.sqrt(hd))
                    vals.append(v[j, sl])
                m = max(logits)
                exps = [math.exp(x - m) for x in logits]
                z = sum(exps)
                for col, (e, val) in enumerate(zip(exps, vals)):
                    weights[b, i, t, col] = e / z
                    mixed[sl] += (e / z) * val
            out[b, t] = h[b, t] + mixed @ wo
    return out, weights


def random_params(config, seed=0, dtype=np.float64):
    return init_parameters(config, seed=seed, dtype=dtype)


def test_attention_matches_bruteforce_oracle():
    cfg = tiny("ZTT", d=8, heads=2)
    params = random_params(cfg, seed=1)
    rec = params.record(2)
    zkey = params.pool[(2, 1)]
    rng = np.random.default_rng(5)
    h = rng.normal(size=(2, 5, 8))
    got, zattn = attention_with_zero_token(tensor(h, dtype=np.float64), rec, zkey, 2)
    want, w_want = oracle_attention(h, rec, zkey.data, 2)
    np.testing.assert_allclose(got.data, want, atol=1e-10)
    np.testing.assert_allclose(zattn, w_want[..., 0], atol=1e-12)
    # The weights the stepper's oracles read, from the op-by-op block.
    _, w = reference_attention_weights(tensor(h, dtype=np.float64), rec, zkey, 2)
    np.testing.assert_allclose(w.data, w_want, atol=1e-10)


def test_attention_without_zero_token_matches_oracle():
    cfg = tiny("HTC", d=8, heads=2)
    params = random_params(cfg, seed=2)
    rec = params.record(1)
    rng = np.random.default_rng(6)
    h = rng.normal(size=(1, 4, 8))
    got, zattn = attention_with_zero_token(tensor(h, dtype=np.float64), rec, None, 2)
    want, w_want = oracle_attention(h, rec, None, 2)
    assert zattn is None
    np.testing.assert_allclose(got.data, want, atol=1e-10)
    _, w = reference_attention_weights(tensor(h, dtype=np.float64), rec, None, 2)
    np.testing.assert_allclose(w.data, w_want, atol=1e-10)


def test_attention_rows_sum_to_one_and_future_masked():
    cfg = tiny("ZTT")
    params = random_params(cfg, seed=3)
    rng = np.random.default_rng(7)
    h = rng.normal(size=(2, 6, 8))
    rec, zkey = params.record(2), params.pool[(2, 1)]
    _, w = reference_attention_weights(tensor(h, dtype=np.float64), rec, zkey, 2)
    np.testing.assert_allclose(w.data.sum(axis=-1), np.ones((2, 2, 6)), atol=1e-5)
    out, zattn = attention_with_zero_token(tensor(h, dtype=np.float64), rec, zkey, 2)
    for t in range(6):
        # Key column j >= 1 is position j-1; strictly future ones carry no mass.
        np.testing.assert_array_equal(w.data[:, :, t, t + 2 :], 0.0)
        # So the block's output and slot-0 weight at t ignore later positions.
        later = h.copy()
        later[:, t + 1 :] = rng.normal(size=later[:, t + 1 :].shape)
        out_l, zattn_l = attention_with_zero_token(tensor(later, dtype=np.float64), rec, zkey, 2)
        np.testing.assert_allclose(out_l.data[:, : t + 1], out.data[:, : t + 1], atol=1e-12)
        np.testing.assert_allclose(zattn_l[..., : t + 1], zattn[..., : t + 1], atol=1e-12)


def test_zero_slot_exempt_from_causal_mask():
    # Every query, including position 0, puts strictly positive mass on slot 0.
    cfg = tiny("ZTT")
    params = random_params(cfg, seed=4)
    rng = np.random.default_rng(8)
    h = tensor(rng.normal(size=(1, 5, 8)), dtype=np.float64)
    _, zattn = attention_with_zero_token(h, params.record(2), params.pool[(2, 2)], 2)
    assert np.all(zattn > 0.0)


def _uniform_rows_hidden(d, t_len, seed):
    """One hidden row repeated across positions: every query is identical."""
    rng = np.random.default_rng(seed)
    row = rng.normal(size=d)
    return np.broadcast_to(row, (1, t_len, d)).copy()


def _zkey_for_logit(h_row, rec, n_heads, target_logit):
    """Key whose slot-0 logit equals target_logit for the (shared) query."""
    d = h_row.shape[-1]
    hd = d // n_heads
    mu = h_row.mean()
    var = ((h_row - mu) ** 2).mean()
    xn = (h_row - mu) / math.sqrt(var + 1e-5) * rec.ln1_g.data + rec.ln1_b.data
    q = xn @ rec.wq.data
    zkey = np.empty(d)
    for i in range(n_heads):
        sl = slice(i * hd, (i + 1) * hd)
        qi = q[sl]
        zkey[sl] = target_logit * math.sqrt(hd) * qi / float(np.dot(qi, qi))
    return zkey


def test_saturated_zero_slot_makes_attention_identity():
    cfg = tiny("ZTT", d=8, heads=2)
    params = random_params(cfg, seed=9)
    rec = params.record(2)
    h = _uniform_rows_hidden(8, 6, seed=10)
    zkey = _zkey_for_logit(h[0, 0], rec, 2, +40.0)
    h_att, zattn = attention_with_zero_token(
        tensor(h, dtype=np.float64), rec, constant(zkey, dtype=np.float64), 2
    )
    assert np.all(zattn > 1.0 - 1e-6)
    np.testing.assert_allclose(h_att.data, h, atol=1e-5)


def test_suppressed_zero_slot_recovers_plain_attention():
    cfg = tiny("ZTT", d=8, heads=2)
    params = random_params(cfg, seed=11)
    rec = params.record(2)
    h = _uniform_rows_hidden(8, 5, seed=12)
    zkey = _zkey_for_logit(h[0, 0], rec, 2, -40.0)
    with_z, _ = attention_with_zero_token(
        tensor(h, dtype=np.float64), rec, constant(zkey, dtype=np.float64), 2
    )
    without, _ = attention_with_zero_token(tensor(h, dtype=np.float64), rec, None, 2)
    np.testing.assert_allclose(with_z.data, without.data, atol=1e-6)


def test_model_level_suppression_equals_htc_on_shared_weights():
    # Position-uniform stream (zeroed positional table, one repeated token)
    # lets per-application keys pin every slot-0 logit to -40.
    l, n, d, heads = 4, 3, 8, 2
    htc_cfg = tiny("HTC", l=l, n=n, d=d, heads=heads)
    htc = random_params(htc_cfg, seed=13)
    htc.pos_emb.data[...] = 0.0
    ids = np.full(6, 3)
    base = forward(ids, htc, htc_cfg)

    ztt_cfg = tiny("ZTT", l=l, n=n, d=d, heads=heads, use_gate=False)
    ztt = init_parameters(ztt_cfg, seed=13, dtype=np.float64)
    for name, t in htc.named().items():
        ztt.named()[name].data[...] = t.data
    ztt.pos_emb.data[...] = 0.0
    for step in step_applications(ids, htc, htc_cfg):
        if step.layer in ztt_cfg.cycled_layers:
            rec = ztt.record(step.layer)
            zkey = _zkey_for_logit(step.h_in[0, 0], rec, heads, -40.0)
            ztt.pool[(step.layer, step.cycle)].data[...] = zkey
    got = forward(ids, ztt, ztt_cfg)
    np.testing.assert_allclose(got.logits.data, base.logits.data, atol=1e-5)


# ---------------------------------------------------------------------------
# gate


def test_gate_off_is_exact_and_saturated_gate_matches():
    cfg_on = tiny("ZTT")
    params = random_params(cfg_on, seed=14)
    rec = params.record(2)
    rng = np.random.default_rng(15)
    h = tensor(rng.normal(size=(2, 4, 8)), dtype=np.float64)
    plain, gate_vals = gated_ffn(h, replace(rec, gate_w=None, gate_b=None))
    assert gate_vals is None
    rec.gate_w.data[...] = 0.0
    rec.gate_b.data[...] = 40.0
    saturated, gate_vals = gated_ffn(h, rec)
    np.testing.assert_allclose(saturated.data, plain.data, atol=1e-6)
    rec.gate_b.data[...] = -40.0
    closed, _ = gated_ffn(h, rec)
    np.testing.assert_allclose(closed.data, h.data, atol=1e-6)


def test_gate_values_strictly_inside_unit_interval():
    cfg = tiny("ZTT")
    params = random_params(cfg, seed=16)
    rng = np.random.default_rng(17)
    h = tensor(rng.normal(size=(2, 5, 8)), dtype=np.float64)
    _, gate_vals = gated_ffn(h, params.record(2))
    assert np.all(gate_vals > 0.0) and np.all(gate_vals < 1.0)


# ---------------------------------------------------------------------------
# forward surface


def test_forward_shapes_and_exit_counts():
    for variant, l, n, n_exits in (("V", 3, 1, 1), ("BC", 3, 2, 2), ("HTC", 3, 4, 4), ("ZTT", 3, 4, 4)):
        cfg = tiny(variant, l=l, n=n)
        params = random_params(cfg, seed=18)
        res = forward(np.arange(5), params, cfg, capture_exits=True)
        assert len(res.exit_logits) == n_exits, variant
        assert res.logits.shape == (5, cfg.vocab)
        batched = forward(np.stack([np.arange(5)] * 3), params, cfg)
        assert batched.logits.shape == (3, 5, cfg.vocab)
        assert len(batched.exit_logits) == 1


def test_forward_without_capture_still_returns_final():
    cfg = tiny("ZTT")
    params = random_params(cfg, seed=19)
    res = forward(np.arange(4), params, cfg, capture_exits=False)
    assert len(res.exit_logits) == 1


def test_adaptive_exit_extremes_are_the_fixed_exits_bitwise():
    # Threshold 0 exits every position after cycle 1 and threshold 1 none
    # before the last, so the gathered tail runs on that exit's own state.
    cfg = tiny("ZTT", l=4, n=3, d=16, heads=4, dff=32)
    params = init_parameters(cfg, seed=24, dtype=np.float32)
    ids = np.random.default_rng(25).integers(0, cfg.vocab, size=(2, 6))
    for threshold, cycle in ((0.0, 1), (1.0, cfg.loop_count)):
        res = forward(ids, params, cfg, capture_exits=True, exit_threshold=threshold)
        np.testing.assert_array_equal(res.adaptive_logits.data, res.exit_logits[cycle - 1].data)
        np.testing.assert_array_equal(res.exit_cycle, np.full(ids.shape, cycle))
    single = forward(ids[0], params, cfg, exit_threshold=0.5)
    assert single.adaptive_logits.shape == (6, cfg.vocab) and single.exit_cycle.shape == (6,)
    assert forward(ids, params, cfg).adaptive_logits is None
    htc = tiny("HTC", l=4, n=3)
    with pytest.raises(ConfigError, match="adaptive exit"):
        forward(np.arange(4), random_params(htc), htc, exit_threshold=0.5)


@pytest.mark.parametrize("variant,kw", [("HTC", {}), ("ZTT", {"use_zero_token": False}), ("BC", {})])
def test_batch_and_decode_refuse_an_exit_threshold_with_one_message(variant, kw):
    cfg = tiny(variant, l=4, n=2, **kw)
    params = random_params(cfg)
    messages = []
    for call in (
        lambda: forward(np.arange(4), params, cfg, exit_threshold=0.5),
        lambda: decode_step(DecodeCache(params, cfg), 1, ExitPolicy(0.5)),
    ):
        with pytest.raises(ConfigError) as err:
            call()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert f"this {variant} model" in messages[0]
    assert "exit_threshold=none" in messages[0] and "--threshold none" in messages[0]


def test_forward_rejects_long_and_bad_inputs():
    cfg = tiny("ZTT", t_max=4)
    params = random_params(cfg, seed=20)
    with pytest.raises(ShapeError):
        forward(np.arange(5), params, cfg)
    with pytest.raises(DataError, match=f"token id {cfg.vocab} does not fit vocab={cfg.vocab}"):
        forward(np.array([0, cfg.vocab]), params, cfg)
    with pytest.raises(DataError, match="token id -1 does not fit"):
        forward(np.array([[0, -1]]), params, cfg)


def test_float_ids_are_refused_by_forward_and_decode():
    cfg = tiny("ZTT")
    params = random_params(cfg, seed=19)
    with pytest.raises(ShapeError, match="integers"):
        forward(np.array([0.0, 1.0]), params, cfg)
    with pytest.raises(ShapeError, match="integers"):
        decode_step(DecodeCache(params, cfg), 1.0)


def test_forward_is_deterministic():
    cfg = tiny("ZTT", d=16, heads=4, dff=32)
    params = init_parameters(cfg, seed=21, dtype=np.float32)
    ids = np.random.default_rng(22).integers(0, cfg.vocab, size=(2, 6))
    a = forward(ids, params, cfg).logits.data
    b = forward(ids, params, cfg).logits.data
    np.testing.assert_array_equal(a, b)


def test_telemetry_covers_every_cycled_application():
    cfg = tiny("ZTT", l=4, n=3)
    params = random_params(cfg, seed=23)
    res = forward(np.arange(6), params, cfg)
    # One value per cycled application, cycle by cycle.
    want = {c: len(cfg.cycled_layers) for c in range(1, cfg.loop_count + 1)}
    for per_cycle in (res.zero_attn, res.gate):
        assert list(per_cycle) == list(want)
        assert {c: len(v) for c, v in per_cycle.items()} == want
        assert all(0.0 < x < 1.0 for v in per_cycle.values() for x in v)
    htc = tiny("HTC", l=4, n=3)
    plain = forward(np.arange(6), random_params(htc, seed=23), htc)
    assert plain.zero_attn == {} and plain.gate == {}


def test_zero_attention_invariant_to_batch_permutation():
    cfg = tiny("ZTT", d=16, heads=4, dff=32, t_max=8)
    params = random_params(cfg, seed=24)
    rng = np.random.default_rng(25)
    ids = rng.integers(0, cfg.vocab, size=(5, 7))
    perm = rng.permutation(5)
    a = forward(ids, params, cfg)
    b = forward(ids[perm], params, cfg)
    np.testing.assert_allclose(a.logits.data[perm], b.logits.data, atol=1e-12)
    assert a.zero_attn.keys() == b.zero_attn.keys()
    for c in a.zero_attn:
        for za, zb in zip(a.zero_attn[c], b.zero_attn[c], strict=True):
            assert math.isclose(za, zb, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# half of an untaped batch walks on the helper thread


def assert_same_forward(a, b):
    """Every exit's logits, adaptive_logits and exit_cycle bitwise equal,
    and the per-cycle zero_attn and gate means equal."""
    assert len(a.exit_logits) == len(b.exit_logits)
    for x, y in zip(a.exit_logits, b.exit_logits):
        np.testing.assert_array_equal(x.data, y.data)
    assert (a.adaptive_logits is None) == (b.adaptive_logits is None)
    if a.adaptive_logits is not None:
        np.testing.assert_array_equal(a.adaptive_logits.data, b.adaptive_logits.data)
        np.testing.assert_array_equal(a.exit_cycle, b.exit_cycle)
    assert (a.zero_attn, a.gate) == (b.zero_attn, b.gate)


def _spy_walks(monkeypatch):
    """Record (thread, windows) of every schedule walk forward makes."""
    walks = []
    inner = model_mod._walk

    def spy(ids, *args):
        walks.append((threading.current_thread(), len(ids)))
        return inner(ids, *args)

    monkeypatch.setattr(model_mod, "_walk", spy)
    return walks


@pytest.mark.parametrize("variant,kw,thresholds", [
    ("V", {"n": 1}, [None]),
    ("BC", {}, [None]),
    ("HTC", {}, [None]),
    ("HTC", {"use_zero_token": True}, [None, 0.5, 1.0]),
    ("ZTT", {}, [None, 0.5, 1.0]),
])
def test_untaped_forward_is_bitwise_the_taped_one(variant, kw, thresholds, monkeypatch):
    kw = {"l": 4, "n": 3, "d": 16, "heads": 4, "dff": 32, **kw}
    cfg = tiny(variant, **kw)
    params = init_parameters(cfg, seed=27, dtype=np.float32)
    ids = np.random.default_rng(28).integers(0, cfg.vocab, size=(3, 7))
    caller = threading.current_thread()
    walks = _spy_walks(monkeypatch)
    for threshold in thresholds:
        walks.clear()
        with Tape() as tape:
            taped = forward(ids, params, cfg, capture_exits=True, exit_threshold=threshold)
        assert len(tape) > 0 and walks == [(caller, 3)]
        walks.clear()
        untaped = forward(ids, params, cfg, capture_exits=True, exit_threshold=threshold)
        # Window 0 walked here, windows 1-2 on the helper.
        assert walks[0] == (caller, 1) and len(walks) == 2
        assert walks[1][0] is not caller and walks[1][1] == 2
        assert len(untaped.exit_logits) == cfg.n_exits
        assert_same_forward(taped, untaped)
        walks.clear()
        with Tape():
            taped_one = forward(ids[:1], params, cfg, capture_exits=True, exit_threshold=threshold)
        one = forward(ids[:1], params, cfg, capture_exits=True, exit_threshold=threshold)
        assert walks == [(caller, 1), (caller, 1)]
        assert_same_forward(taped_one, one)


@pytest.mark.parametrize("b", [2, 5, 8])
def test_untaped_forward_at_the_canonical_shape_is_bitwise_the_whole_batch_walk(b):
    cfg = model_config(RunConfig(early_exit_heads=True))
    params = init_parameters(cfg, seed=35, dtype=np.float32)
    ids = np.random.default_rng(36 + b).integers(0, cfg.vocab, size=(b, cfg.t_max))
    for threshold in (None, 0.5, 1.0):
        with Tape():
            taped = forward(ids, params, cfg, capture_exits=True, exit_threshold=threshold)
        untaped = forward(ids, params, cfg, capture_exits=True, exit_threshold=threshold)
        assert_same_forward(taped, untaped)


def test_untaped_forward_on_short_windows_is_bitwise_its_halves_walked_alone():
    # At T=7 the halves' GEMMs take other OpenBLAS kernels than the whole
    # batch's can, so the contract is the two halves' one-thread walks,
    # joined along the batch axis, with the per-cycle means taken after.
    cfg = replace(model_config(RunConfig(early_exit_heads=True)), t_max=7)
    params = init_parameters(cfg, seed=37, dtype=np.float32)
    ids = np.random.default_rng(38).integers(0, cfg.vocab, size=(3, 7))
    for threshold in (None, 0.5, 1.0):
        got = forward(ids, params, cfg, capture_exits=True, exit_threshold=threshold)
        with Tape():
            halves = [model_mod._walk(part, params, cfg, True, threshold) for part in (ids[:1], ids[1:])]
        (exits_a, ada_a, at_a, za, ga), (exits_b, ada_b, at_b, zb, gb) = halves
        assert len(got.exit_logits) == len(exits_a) == cfg.n_exits
        for x, ea, eb in zip(got.exit_logits, exits_a, exits_b):
            np.testing.assert_array_equal(x.data, np.concatenate([ea.data, eb.data]))
        if threshold is None:
            assert got.adaptive_logits is None and got.exit_cycle is None
        else:
            np.testing.assert_array_equal(got.adaptive_logits.data, np.concatenate([ada_a.data, ada_b.data]))
            np.testing.assert_array_equal(got.exit_cycle, np.concatenate([at_a, at_b]))
        for means, a, b in ((got.zero_attn, za, zb), (got.gate, ga, gb)):
            assert means == {n: [float(np.concatenate([x, y]).mean()) for x, y in zip(a[n], b[n])] for n in a}


def test_an_error_in_the_helpers_half_is_raised_by_the_caller(monkeypatch):
    cfg = tiny("ZTT", l=4, n=3, d=16, heads=4, dff=32)
    params = init_parameters(cfg, seed=29, dtype=np.float32)
    ids = np.random.default_rng(30).integers(0, cfg.vocab, size=(2, 6))
    want = forward(ids, params, cfg, capture_exits=True, exit_threshold=0.5)
    caller = threading.current_thread()
    inner = model_mod._lm_logits
    failed = []

    def fail_once_on_the_helper(h, params):
        if threading.current_thread() is not caller and not failed:
            failed.append(threading.current_thread())
            raise RuntimeError("helper half failed")
        return inner(h, params)

    monkeypatch.setattr(model_mod, "_lm_logits", fail_once_on_the_helper)
    with pytest.raises(RuntimeError, match="helper half failed"):
        forward(ids, params, cfg, capture_exits=True, exit_threshold=0.5)
    assert len(failed) == 1
    assert_same_forward(want, forward(ids, params, cfg, capture_exits=True, exit_threshold=0.5))


def test_a_failed_forward_raises_only_after_the_helpers_half_finishes(monkeypatch):
    # The caller's half raises at its first LM head while the helper's half
    # is slow: forward waits for all four of the helper's LM heads (exits 1
    # and 2, the gathered tail, the final tail) before it raises.
    cfg = tiny("ZTT", l=4, n=3, d=16, heads=4, dff=32)
    params = init_parameters(cfg, seed=33, dtype=np.float32)
    ids = np.random.default_rng(34).integers(0, cfg.vocab, size=(2, 6))
    want = forward(ids, params, cfg, capture_exits=True, exit_threshold=0.5)
    caller = threading.current_thread()
    inner = model_mod._lm_logits
    finished = []

    def slow_on_the_helper_failing_here(h, params):
        if threading.current_thread() is caller:
            raise RuntimeError("caller half failed")
        time.sleep(0.05)
        finished.append(inner(h, params))
        return finished[-1]

    monkeypatch.setattr(model_mod, "_lm_logits", slow_on_the_helper_failing_here)
    with pytest.raises(RuntimeError, match="caller half failed"):
        forward(ids, params, cfg, capture_exits=True, exit_threshold=0.5)
    assert len(finished) == cfg.n_exits + 1
    monkeypatch.setattr(model_mod, "_lm_logits", inner)
    assert_same_forward(want, forward(ids, params, cfg, capture_exits=True, exit_threshold=0.5))


def test_concurrent_untaped_forwards_share_one_helper_and_get_their_own_results():
    # Four callers on two cores, switching threads every microsecond: each
    # gets its own batch's outputs back, and all of them share one helper.
    cfg = tiny("ZTT", l=4, n=3, d=16, heads=4, dff=32)
    params = init_parameters(cfg, seed=31, dtype=np.float32)
    rng = np.random.default_rng(32)
    batches = [rng.integers(0, cfg.vocab, size=(2, 6)) for _ in range(4)]

    def run(ids):
        return forward(ids, params, cfg, capture_exits=True, exit_threshold=0.5)

    want = [run(ids) for ids in batches]
    got: dict[int, list] = {i: [] for i in range(len(batches))}
    errors = []

    def caller(i):
        try:
            for _ in range(5):
                got[i].append(run(batches[i]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert sum(t.name == "cycleformer-walk" for t in threading.enumerate()) == 1
    for i, runs in got.items():
        assert len(runs) == 5
        for res in runs:
            assert_same_forward(want[i], res)


def closed_form_param_count(cfg):
    """Parameter total written out from the architecture, independent of
    `init_parameters` and `param_count`: embeddings (plus an untied head),
    per weight record 4d^2 + 2*d*d_ff + d_ff + 5d (+ d + 1 with the gate),
    one d-vector per zero-token key and the final norm's 2d."""
    d, dff = cfg.d_model, cfg.d_ff
    cycled = len(cfg.cycled_layers)
    records = cfg.all_layers - cycled + 1 if cfg.share_middle else cfg.all_layers
    per_record = 4 * d * d + 2 * d * dff + dff + 5 * d + ((d + 1) if cfg.use_gate else 0)
    pool = cycled * cfg.loop_count * d if cfg.use_zero_token else 0
    head = 0 if cfg.tie_embeddings else cfg.vocab * d
    return cfg.vocab * d + cfg.t_max * d + head + records * per_record + pool + 2 * d


def test_param_count_matches_actual_arrays():
    for cfg in (
        tiny("V", l=4, n=1),
        tiny("BC", l=3, n=2),
        tiny("HTC", l=4, n=3),
        tiny("ZTT", l=4, n=3),
        tiny("ZTT", l=5, n=2, share_middle=True),
        tiny("ZTT", l=3, n=2, tie_embeddings=False),
    ):
        params = init_parameters(cfg, seed=0)
        actual = sum(t.data.size for t in params.named().values())
        assert param_count(cfg)["total"] == actual, cfg.variant
        assert closed_form_param_count(cfg) == actual, cfg.variant


def test_canonical_param_count_is_pinned():
    cfg = model_config(RunConfig())
    assert (cfg.variant, cfg.all_layers, cfg.loop_count, cfg.d_model, cfg.d_ff) == ("ZTT", 4, 3, 128, 512)
    assert param_count(cfg) == {
        "total": 833_924,
        "by_group": {
            "embeddings": 41_344, "blocks": 791_040, "gates": 516,
            "zero_token_pool": 768, "final_norm": 256,
        },
    }
    assert closed_form_param_count(cfg) == 833_924


def test_share_middle_aliases_one_record():
    cfg = tiny("ZTT", l=5, n=2, share_middle=True)
    params = random_params(cfg, seed=26)
    assert params.record(2) is params.record(3) is params.record(4)
    assert params.record(1) is not params.record(2)
    assert set(params.records) == {"layer1", "layer_mid", "layer5"}


def test_untied_embeddings_add_a_head_matrix():
    tied = tiny("ZTT")
    untied = tiny("ZTT", tie_embeddings=False)
    assert "lm_head" not in init_parameters(tied, 0).named()
    assert "lm_head" in init_parameters(untied, 0).named()
    assert param_count(untied)["total"] - param_count(tied)["total"] == untied.vocab * untied.d_model


# ---------------------------------------------------------------------------
# gradients through the whole stack


def test_full_model_gradcheck_every_parameter_group():
    # The reference instance: d=16, 2 heads, L=4, N=2, T=5, multi-exit loss.
    cfg = ModelConfig(
        variant="ZTT", all_layers=4, loop_count=2, d_model=16, n_heads=2, d_ff=24,
        vocab=13, t_max=6,
    )
    params = init_parameters(cfg, seed=27, dtype=np.float64)
    rng = np.random.default_rng(28)
    ids = rng.integers(0, cfg.vocab, size=5)
    targets = rng.integers(0, cfg.vocab, size=5)

    def f():
        res = forward(ids, params, cfg, capture_exits=True)
        total = None
        for logits in res.exit_logits:
            ce = ad.cross_entropy(logits, targets)
            total = ce if total is None else ad.add(total, ce)
        return ad.scale(total, 1.0 / len(res.exit_logits))

    failures = check_grads(f, params.named(), rng=np.random.default_rng(29), max_entries_per_param=6)
    assert not failures, "\n".join(failures)


def test_cycled_weight_gradients_accumulate_across_cycles():
    # A cycled layer's gradient is the sum over its applications, so adding a
    # cycle must change it while the (once-run) head layer keeps its role.
    ids = np.arange(4)

    def grad_for(n_cycles):
        c = tiny("ZTT", l=3, n=n_cycles, d=8, heads=2)
        p = init_parameters(c, seed=30, dtype=np.float64)
        targets = np.arange(1, 5) % c.vocab
        with Tape() as tape:
            loss = ad.cross_entropy(forward(ids, p, c).logits, targets)
        backward(tape, loss)
        return p.record(2).wq.grad.copy()

    assert not np.allclose(grad_for(1), grad_for(2))


# ---------------------------------------------------------------------------
# retrofit


def _clone_vanilla_with_identical_middles(l, seed):
    cfg = tiny("V", l=l, n=1, d=8, heads=2)
    params = init_parameters(cfg, seed=seed, dtype=np.float64)
    common = params.records["layer2"]
    for i in range(3, l):
        dst = params.records[f"layer{i}"]
        for sub, t in common.tensors().items():
            dst.tensors()[sub].data[...] = t.data
    return cfg, params


def test_retrofit_equals_hand_tied_model():
    l = 5
    vcfg, vanilla = _clone_vanilla_with_identical_middles(l, seed=31)
    tcfg = tiny("HTC", l=l, n=3, d=8, heads=2, share_middle=True)
    retro = init_from_vanilla(vanilla, tcfg, seed=32)
    hand = init_parameters(tcfg, seed=99, dtype=np.float64)
    for name in ("tok_emb", "pos_emb", "final_g", "final_b"):
        getattr(hand, name).data[...] = getattr(vanilla, name).data
    for key, src_key in (("layer1", "layer1"), ("layer_mid", "layer2"), (f"layer{l}", f"layer{l}")):
        for sub, t in vanilla.records[src_key].tensors().items():
            hand.records[key].tensors()[sub].data[...] = t.data
    ids = np.arange(6)
    got = forward(ids, retro, tcfg).logits.data
    want = forward(ids, hand, tcfg).logits.data
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_retrofit_middle_is_mean_of_vanilla_middles():
    vcfg = tiny("V", l=5, n=1, d=8, heads=2)
    vanilla = init_parameters(vcfg, seed=33, dtype=np.float64)
    tcfg = tiny("ZTT", l=5, n=2, d=8, heads=2, share_middle=True)
    retro = init_from_vanilla(vanilla, tcfg, seed=34)
    want = np.mean([vanilla.records[f"layer{i}"].wq.data for i in (2, 3, 4)], axis=0)
    np.testing.assert_allclose(retro.records["layer_mid"].wq.data, want, atol=1e-12)
    np.testing.assert_allclose(retro.records["layer1"].wq.data, vanilla.records["layer1"].wq.data)
    # Fresh keys exist for every (cycled layer, cycle); gates start near unity.
    assert set(retro.pool) == {(l, c) for l in (2, 3, 4) for c in (1, 2)}
    for rec in retro.records.values():
        assert float(rec.gate_b.data[0]) == 4.0


@pytest.mark.parametrize("l,share", [(3, False), (5, True)], ids=["L3", "L5-shared"])
@pytest.mark.parametrize("variant", ["HTC", "ZTT"])
def test_retrofit_copies_shared_names_and_averages_the_middle(variant, l, share):
    vanilla = init_parameters(tiny("V", l=l, n=1, d=8, heads=2), seed=37, dtype=np.float64)
    tcfg = tiny(variant, l=l, n=2, d=8, heads=2, share_middle=share)
    retro = init_from_vanilla(vanilla, tcfg, seed=38).named()
    fresh = init_parameters(tcfg, seed=38, dtype=np.float64).named()
    src = vanilla.named()
    mid = "layer_mid" if share else "layer2"
    assert set(retro) == set(fresh)
    for name, t in retro.items():
        key, _, sub = name.partition(".")
        if sub.startswith("gate."):
            assert (t.data == (0.0 if sub == "gate.w" else 4.0)).all(), name
        elif key == mid:
            want = np.stack([src[f"layer{i}.{sub}"].data for i in range(2, l)]).mean(0)
            np.testing.assert_array_equal(t.data, want, err_msg=name)
        elif key == "zero_key":
            np.testing.assert_array_equal(t.data, fresh[name].data, err_msg=name)
        else:
            np.testing.assert_array_equal(t.data, src[name].data, err_msg=name)
    assert any(name.startswith("zero_key.") for name in retro) == (variant == "ZTT")
    assert any(".gate." in name for name in retro) == (variant == "ZTT")


def test_retrofit_rejects_bad_sources():
    vcfg = tiny("V", l=4, n=1, d=8, heads=2)
    vanilla = init_parameters(vcfg, seed=35, dtype=np.float64)
    with pytest.raises(ConfigError):
        init_from_vanilla(vanilla, tiny("ZTT", l=4, n=2, d=8, heads=2), seed=0)  # L>3, no sharing
    with pytest.raises(ConfigError):
        init_from_vanilla(vanilla, tiny("ZTT", l=5, n=2, d=8, heads=2, share_middle=True), seed=0)
    bc_cfg = tiny("BC", l=4, n=2, d=8, heads=2)
    bc = init_parameters(bc_cfg, seed=36, dtype=np.float64)
    with pytest.raises(ConfigError):
        init_from_vanilla(bc, tiny("ZTT", l=4, n=2, d=8, heads=2, share_middle=True), seed=0)
