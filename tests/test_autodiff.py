"""Primitive ops: frozen-value oracles, analytic identities, gradient checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cycleformer.autodiff as ad
from cycleformer.autodiff import Tape, backward, constant, parameter, tensor
from cycleformer.errors import ShapeError, UsageError

from gradcheck import check_grads
from oracle_kernels import gelu_np


def finite_floats(shape, lo=-4.0, hi=4.0):
    return hnp.arrays(
        np.float64, shape, elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    )


# ---------------------------------------------------------------------------
# matmul


def test_matmul_pinned_product():
    a = tensor([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    b = tensor([[5.0, 6.0], [7.0, 8.0]], dtype=np.float64)
    np.testing.assert_allclose(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_identity_and_annihilator():
    rng = np.random.default_rng(0)
    a = tensor(rng.normal(size=(3, 3)), dtype=np.float64)
    eye = tensor(np.eye(3), dtype=np.float64)
    zero = tensor(np.zeros((3, 3)), dtype=np.float64)
    np.testing.assert_allclose(ad.matmul(a, eye).data, a.data)
    np.testing.assert_allclose(ad.matmul(eye, a).data, a.data)
    np.testing.assert_allclose(ad.matmul(a, zero).data, np.zeros((3, 3)))


def test_matmul_inner_dim_mismatch_raises():
    a = tensor(np.zeros((2, 3)))
    b = tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        ad.matmul(a, b)


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3, 4, 5))
    b = rng.normal(size=(2, 3, 5, 6))
    got = ad.matmul(tensor(a, dtype=np.float64), tensor(b, dtype=np.float64)).data
    want = np.stack([
        np.stack([a[i, j] @ b[i, j] for j in range(3)]) for i in range(2)
    ])
    np.testing.assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_pinned_two_class():
    x = tensor([0.0, math.log(3.0)], dtype=np.float64)
    got = ad.softmax(ad.reshape(x, (1, 2)), axis=-1).data[0]
    np.testing.assert_allclose(got, [0.25, 0.75], atol=1e-12)


@settings(deadline=None)
@given(finite_floats((4, 7)), st.floats(-30.0, 30.0, allow_nan=False))
def test_softmax_rows_sum_to_one_and_shift_invariant(x, shift):
    s = ad.softmax(tensor(x), axis=-1).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), atol=1e-6)
    s2 = ad.softmax(tensor(x + shift), axis=-1).data
    np.testing.assert_allclose(s, s2, atol=1e-6)


def test_softmax_huge_magnitudes_stay_finite():
    x = tensor([[1e4, -1e4, 0.0]], dtype=np.float64)
    s = ad.softmax(x, axis=-1).data
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s.sum(), 1.0, atol=1e-12)


def test_softmax_empty_axis_raises():
    with pytest.raises(ShapeError):
        ad.softmax(tensor(np.zeros((3, 0))), axis=-1)


# ---------------------------------------------------------------------------
# layer norm, against an independent two-pass oracle


def two_pass_layer_norm(x, gamma, beta, eps=1e-5):
    out = np.empty_like(x)
    flat = x.reshape(-1, x.shape[-1])
    oflat = out.reshape(-1, x.shape[-1])
    for i, row in enumerate(flat):
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        oflat[i] = (row - mu) / math.sqrt(var + eps) * gamma + beta
    return out


@settings(deadline=None, max_examples=50)
@given(finite_floats((3, 5)))
def test_layer_norm_matches_two_pass_oracle(x):
    rng = np.random.default_rng(0)
    gamma = rng.normal(size=5)
    beta = rng.normal(size=5)
    got = ad.layer_norm(tensor(x), tensor(gamma, dtype=np.float64), tensor(beta, dtype=np.float64)).data
    np.testing.assert_allclose(got, two_pass_layer_norm(x, gamma, beta), atol=1e-10)


def test_layer_norm_constant_row_maps_to_beta():
    x = tensor(np.full((2, 6), 3.7), dtype=np.float64)
    gamma = tensor(np.ones(6), dtype=np.float64)
    beta = tensor(np.arange(6.0), dtype=np.float64)
    got = ad.layer_norm(x, gamma, beta).data
    np.testing.assert_allclose(got, np.broadcast_to(np.arange(6.0), (2, 6)), atol=1e-6)


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_is_log_vocab():
    v = 259
    logits = tensor(np.zeros((4, v)), dtype=np.float64)
    loss = ad.cross_entropy(logits, np.array([0, 5, 100, 258]))
    np.testing.assert_allclose(loss.item(), math.log(v), atol=1e-12)


def test_cross_entropy_pinned_two_class():
    logits = tensor([[0.0, math.log(3.0)]], dtype=np.float64)
    loss = ad.cross_entropy(logits, np.array([1]))
    np.testing.assert_allclose(loss.item(), -math.log(0.75), atol=1e-12)
    np.testing.assert_allclose(loss.item(), 0.2876820724517809, atol=1e-12)


def test_cross_entropy_target_out_of_range_raises():
    logits = tensor(np.zeros((2, 5)))
    with pytest.raises(IndexError):
        ad.cross_entropy(logits, np.array([0, 5]))


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 7))
    logits = parameter(x, dtype=np.float64)
    targets = np.array([1, 0, 6])
    with Tape() as tape:
        loss = ad.cross_entropy(logits, targets)
    backward(tape, loss)
    p = np.exp(x - x.max(1, keepdims=True))
    p /= p.sum(1, keepdims=True)
    p[np.arange(3), targets] -= 1.0
    np.testing.assert_allclose(logits.grad, p / 3.0, atol=1e-12)


# ---------------------------------------------------------------------------
# elementwise


def test_gelu_fixed_points():
    x = tensor([0.0, 100.0, -100.0], dtype=np.float64)
    got = ad.gelu(x).data
    np.testing.assert_allclose(got, [0.0, 100.0, 0.0], atol=1e-6)


def _gelu_f64(x):
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * x**3))
    value = 0.5 * x * (1.0 + t)
    slope = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * a * x * x)
    return value, slope


def test_gelu_float32_tape_and_decode_kernels_are_bitwise_equal():
    # The tape's in-place kernel against the plain formula the oracles use.
    x = np.random.default_rng(3).normal(scale=3.0, size=(7, 33)).astype(np.float32)
    got = ad.gelu(tensor(x)).data
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, gelu_np(x))


@pytest.mark.parametrize("rows", [1, 4, 7, 64])
def test_gelu_grad_by_rows_is_bitwise_the_full_array_gradient(rows):
    # The FFN's backward turns the upstream gradient's buffer into the GELU
    # input's, then finishes the GELU output over its input from the 1 + t
    # that `gelu_grad` leaves in the tanh term, a chunk of rows at a time; a
    # chunk may run past the last row.
    rng = np.random.default_rng(11)
    x = rng.normal(scale=3.0, size=(21, 33)).astype(np.float32)
    g = rng.normal(size=x.shape).astype(np.float32)
    want_act, t = ad._gelu_parts(x)
    want = ad.gelu_grad(x, t, g)
    act, buf = x.copy(), g.copy()
    for r in range(0, len(x), rows):
        c = slice(r, r + rows)
        t_c = ad._gelu_tanh(act[c])
        ad.gelu_grad(act[c], t_c, buf[c], out=buf[c])
        act[c] *= t_c
        act[c] *= 0.5
    np.testing.assert_array_equal(act, want_act)
    np.testing.assert_array_equal(buf, want)


@pytest.mark.parametrize(
    "shape,dtype,axis", [((2, 3, 5, 6), np.float32, -1), ((259,), np.float64, -1), ((4, 7), np.float32, 0)]
)
def test_softmax_np_in_one_buffer_is_bitwise_the_three_buffer_form(shape, dtype, axis):
    # 4-D float32 is the attention's weights; 1-D float64 is `generate`'s
    # sampling distribution.
    rng = np.random.default_rng(5)
    x = rng.normal(scale=4.0, size=shape).astype(dtype)
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    want = e / np.sum(e, axis=axis, keepdims=True)
    fresh = ad.softmax_np(x, axis=axis)
    assert fresh.dtype == dtype and not np.shares_memory(fresh, x)
    np.testing.assert_array_equal(fresh, want)
    out = np.full_like(x, np.nan)
    assert ad.softmax_np(x, axis=axis, out=out) is out
    np.testing.assert_array_equal(out, want)
    inplace = x.copy()
    assert ad.softmax_np(inplace, axis=axis, out=inplace) is inplace
    np.testing.assert_array_equal(inplace, want)


def test_gelu_float32_matches_float64_reference():
    x64 = np.concatenate([np.linspace(-12.0, 12.0), [-100.0, 100.0]])
    value, slope = _gelu_f64(x64)
    x = parameter(x64, dtype=np.float32)
    with Tape() as tape:
        y = ad.gelu(x)
        loss = ad.sum_all(y)
    backward(tape, loss)
    assert y.data.dtype == np.float32 and x.grad.dtype == np.float32
    # atol: where tanh saturates, float32 rounds 1 + t (and 1 - t^2) to 0
    # while float64 keeps a tail below 1e-6.
    np.testing.assert_allclose(y.data, value, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(x.grad, slope, rtol=1e-6, atol=1e-6)


def test_sigmoid_range_and_symmetry():
    x = np.linspace(-20, 20, 41)
    s = ad.sigmoid(tensor(x, dtype=np.float64)).data
    assert np.all((s >= 0.0) & (s <= 1.0))
    np.testing.assert_allclose(s + s[::-1], np.ones_like(s), atol=1e-12)


def test_sigmoid_saturates_without_overflow():
    s = ad.sigmoid(tensor([-1e4, 1e4], dtype=np.float64)).data
    np.testing.assert_allclose(s, [0.0, 1.0], atol=1e-12)


def _sigmoid_split_by_sign(x):
    """The reference: each sign's branch evaluated on its own elements only."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_kernel_matches_split_by_sign_reference(dtype):
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40, 88.0, -88.0, 1e4, -1e4]
    x = np.concatenate([rng.normal(scale=6.0, size=200), special]).astype(dtype)
    got, want = ad.sigmoid_np(x), _sigmoid_split_by_sign(x)
    assert got.dtype == want.dtype == dtype
    if dtype == np.float32:
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
    else:  # the same bits, but for the sign of a NaN
        finite = ~np.isnan(x)
        np.testing.assert_array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))
        assert np.isnan(got[~finite]).all()


# ---------------------------------------------------------------------------
# tape mechanics


def test_parameter_reuse_accumulates_additively():
    # One tensor used twice must receive the sum of the two single-use grads.
    w = parameter(np.array(1.3), dtype=np.float64)
    x = constant(np.array(0.7), dtype=np.float64)
    with Tape() as tape:
        y = ad.mul(w, ad.mul(w, x))  # y = w^2 x, dy/dw = 2wx
        loss = ad.sum_all(y)
    backward(tape, loss)
    w1 = parameter(np.array(1.3), dtype=np.float64)
    w2 = parameter(np.array(1.3), dtype=np.float64)
    with Tape() as tape2:
        loss2 = ad.sum_all(ad.mul(w1, ad.mul(w2, x)))
    backward(tape2, loss2)
    np.testing.assert_allclose(w.grad, w1.grad + w2.grad, atol=1e-10)
    np.testing.assert_allclose(w.grad, 2 * 1.3 * 0.7, atol=1e-10)


def test_backward_off_tape_raises():
    w = parameter(np.array(2.0), dtype=np.float64)
    with Tape():
        pass
    tape2 = Tape()
    with tape2:
        pass
    with Tape() as t3:
        loss = ad.sum_all(ad.mul(w, w))
    with pytest.raises(UsageError):
        backward(tape2, loss)


def test_backward_requires_scalar():
    w = parameter(np.ones(3), dtype=np.float64)
    with Tape() as tape:
        y = ad.scale(w, 2.0)
    with pytest.raises(ShapeError):
        backward(tape, y)


def test_no_tape_records_nothing():
    w = parameter(np.ones((2, 2)), dtype=np.float64)
    out = ad.matmul(w, w)
    assert out.grad_needed is False


def test_constants_and_dead_branches_keep_no_grad():
    # A constant input gets no gradient, and neither does a parameter whose
    # recorded branch never reaches the loss; the branch adds nothing to w.
    w = parameter(np.array([1.0, 2.0]), dtype=np.float64)
    c = constant(np.array([3.0, 4.0]), dtype=np.float64)
    unused = parameter(np.array([5.0, 6.0]), dtype=np.float64)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(w, c))
        ad.mul(w, unused)
    backward(tape, loss)
    np.testing.assert_array_equal(w.grad, [3.0, 4.0])
    assert c.grad is None
    assert unused.grad is None


def test_grads_flow_through_branches():
    # A value feeding two consumers gets both contributions.
    w = parameter(np.array([1.0, 2.0]), dtype=np.float64)
    with Tape() as tape:
        a = ad.scale(w, 3.0)
        loss = ad.sum_all(ad.add(a, a))
    backward(tape, loss)
    np.testing.assert_allclose(w.grad, [6.0, 6.0], atol=1e-12)


def test_backward_consumes_the_tape():
    # The sweep pops every record and frees every non-leaf gradient; a swept
    # tape cannot be replayed into the leaves a second time.
    w = parameter(np.array([[1.0, -2.0], [0.5, 3.0]]), dtype=np.float64)
    x = constant(np.array([[2.0, 1.0], [-1.0, 4.0]]), dtype=np.float64)
    with Tape() as tape:
        h = ad.gelu(ad.matmul(x, w))
        loss = ad.sum_all(ad.add(ad.transpose(h, (1, 0)), ad.reshape(h, (2, 2))))
    outputs = [out for out, _, _ in tape._records]
    backward(tape, loss)
    assert len(tape) == 0
    assert all(out.grad is None for out in outputs)
    first = w.grad.copy()
    with pytest.raises(UsageError):
        backward(tape, loss)
    np.testing.assert_array_equal(w.grad, first)


def test_one_gradient_for_two_inputs_is_not_shared():
    # `add` returns its output gradient for both inputs. `a` is also used
    # before the add, so its gradient is written again after the add's rule
    # ran; that write must not reach `b`'s gradient.
    a = parameter(np.array([1.0, 2.0]), dtype=np.float64)
    b = parameter(np.array([3.0, -1.0]), dtype=np.float64)
    c = constant(np.array([5.0, 7.0]), dtype=np.float64)
    with Tape() as tape:
        early = ad.mul(a, c)
        y = ad.add(a, b)
        loss = ad.sum_all(ad.add(ad.scale(y, 2.0), early))
    backward(tape, loss)
    np.testing.assert_array_equal(b.grad, [2.0, 2.0])
    np.testing.assert_array_equal(a.grad, [7.0, 9.0])
    assert not np.shares_memory(a.grad, b.grad)


# ---------------------------------------------------------------------------
# structural ops


def test_concat_and_narrow_roundtrip():
    rng = np.random.default_rng(3)
    a = tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    b = tensor(rng.normal(size=(2, 1, 4)), dtype=np.float64)
    cat = ad.concat([b, a], axis=1)
    assert cat.shape == (2, 4, 4)
    np.testing.assert_allclose(ad.narrow(cat, 1, 0, 1).data, b.data)
    np.testing.assert_allclose(ad.narrow(cat, 1, 1, 3).data, a.data)


def test_embedding_gathers_rows_and_scatters_grads():
    w = parameter(np.arange(12.0).reshape(4, 3), dtype=np.float64)
    ids = np.array([[0, 2], [2, 3]])
    with Tape() as tape:
        e = ad.embedding(w, ids)
        loss = ad.sum_all(e)
    np.testing.assert_allclose(e.data[1, 0], [6.0, 7.0, 8.0])
    backward(tape, loss)
    # Row 2 was gathered twice, row 1 never.
    np.testing.assert_allclose(w.grad[:, 0], [1.0, 0.0, 2.0, 1.0])


def test_embedding_rejects_out_of_range_ids():
    w = parameter(np.zeros((4, 3)))
    with pytest.raises(IndexError):
        ad.embedding(w, np.array([0, 4]))
    with pytest.raises(IndexError):
        ad.embedding(w, np.array([-1]))


def test_expand_backward_sums_broadcast_axes():
    w = parameter(np.array([[1.0, 2.0]]), dtype=np.float64)
    with Tape() as tape:
        big = ad.expand(w, (3, 2))
        loss = ad.sum_all(big)
    backward(tape, loss)
    np.testing.assert_allclose(w.grad, [[3.0, 3.0]])


# ---------------------------------------------------------------------------
# finite-difference checks over every primitive in one composite function


def test_composite_gradcheck_all_primitives():
    rng = np.random.default_rng(7)
    d = 6
    params = {
        "x": parameter(rng.normal(size=(2, 3, d)), dtype=np.float64),
        "w": parameter(rng.normal(size=(d, d)) * 0.3, dtype=np.float64),
        "b": parameter(rng.normal(size=d) * 0.1, dtype=np.float64),
        "gamma": parameter(1.0 + 0.1 * rng.normal(size=d), dtype=np.float64),
        "beta": parameter(0.1 * rng.normal(size=d), dtype=np.float64),
        "gate_w": parameter(rng.normal(size=(d, 1)) * 0.3, dtype=np.float64),
        "emb": parameter(rng.normal(size=(5, d)) * 0.5, dtype=np.float64),
    }
    ids = np.array([[0, 4, 2], [1, 1, 3]])
    targets = np.array([1, 0, 3, 2, 4, 0])

    def f():
        e = ad.embedding(params["emb"], ids)
        h = ad.add(e, params["x"])
        hn = ad.layer_norm(h, params["gamma"], params["beta"])
        flat = ad.reshape(hn, (6, d))
        z = ad.add_bias(ad.matmul(flat, params["w"]), params["b"])
        z = ad.gelu(z)
        gate = ad.sigmoid(ad.matmul(flat, params["gate_w"]))
        z3 = ad.scale_rows(ad.reshape(z, (2, 3, d)), ad.reshape(gate, (2, 3, 1)))
        att = ad.softmax(ad.matmul(z3, ad.transpose(z3, (0, 2, 1))), axis=-1)
        mixed = ad.matmul(att, z3)
        logits = ad.matmul(ad.reshape(mixed, (6, d)), ad.transpose(params["emb"], (1, 0)))
        ce = ad.cross_entropy(logits, targets)
        return ad.add(ad.scale(ce, 0.9), ad.scale(ad.sum_all(ad.mul(gate, gate)), 0.01))

    failures = check_grads(f, params, rng=np.random.default_rng(11))
    assert not failures, "\n".join(failures)


def test_concat_narrow_expand_gradcheck():
    rng = np.random.default_rng(13)
    params = {
        "a": parameter(rng.normal(size=(2, 2, 3)), dtype=np.float64),
        "zk": parameter(rng.normal(size=(1, 1, 3)), dtype=np.float64),
    }

    mask = np.array([[0.5], [-1.0]])  # broadcasts over the leading and last axes

    def f():
        zk = ad.expand(params["zk"], (2, 1, 3))
        cat = ad.concat([zk, params["a"]], axis=1)
        sub = ad.narrow(cat, 1, 0, 2)
        masked = ad.add_const(sub, mask)
        return ad.sum_all(ad.mul(masked, masked))

    failures = check_grads(f, params, rng=np.random.default_rng(17))
    assert not failures, "\n".join(failures)


def test_dtype_mismatch_raises():
    a = tensor(np.zeros((2, 2)), dtype=np.float32)
    b = tensor(np.zeros((2, 2)), dtype=np.float64)
    with pytest.raises(ShapeError):
        ad.add(a, b)


def test_f32_and_f64_forward_agree():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 4))
    got32 = ad.matmul(tensor(x, dtype=np.float32), tensor(w, dtype=np.float32)).data
    got64 = ad.matmul(tensor(x, dtype=np.float64), tensor(w, dtype=np.float64)).data
    np.testing.assert_allclose(got32, got64, rtol=1e-5, atol=1e-5)
