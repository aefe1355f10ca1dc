"""AdamW against a standalone scripted trajectory and the pinned decay identity."""
import math

import numpy as np
import pytest

from cycleformer.autodiff import parameter
from cycleformer.optim import AdamW


def test_decay_only_step_shrinks_weight_exactly():
    # Zero gradient, wd=0.01, lr=0.1: w <- 0.999 * w.
    w = parameter(np.array(1.0), dtype=np.float64)
    opt = AdamW({"w": w}, weight_decay=0.01)
    w.grad = np.asarray(0.0)
    opt.step(lr=0.1)
    np.testing.assert_allclose(w.data, 0.999, atol=1e-15)


def test_first_step_moves_by_lr_sign_of_grad():
    w = parameter(np.array(0.5), dtype=np.float64)
    opt = AdamW({"w": w}, weight_decay=0.0)
    w.grad = np.asarray(0.3)
    opt.step(lr=0.01)
    np.testing.assert_allclose(w.data, 0.5 - 0.01 * (0.3 / (0.3 + 1e-8)), atol=1e-12)


def test_three_step_trajectory_matches_scripted_oracle():
    # Scripted AdamW written independently of the implementation under test.
    lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01
    grads = [0.4, -0.2, 0.1]
    w_ref = 1.0
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w_ref = w_ref - lr * wd * w_ref - lr * mhat / (math.sqrt(vhat) + eps)

    w = parameter(np.array(1.0), dtype=np.float64)
    opt = AdamW({"w": w}, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    for g in grads:
        w.grad = np.asarray(g)
        opt.step(lr=lr)
    np.testing.assert_allclose(float(w.data), w_ref, atol=1e-12)
    assert opt.t == 3
    # A 0-d float64 parameter keeps 0-d float64 arrays for its weight and state.
    for arr in (w.data, opt.m["w"], opt.v["w"]):
        assert isinstance(arr, np.ndarray) and arr.shape == () and arr.dtype == np.float64


@pytest.mark.parametrize("shape", [(), (4, 3)])
def test_float32_state_and_weights_are_updated_in_place(shape):
    rng = np.random.default_rng(1)
    w = parameter(rng.normal(size=shape), dtype=np.float32)
    opt = AdamW({"w": w})
    data, m, v = w.data, opt.m["w"], opt.v["w"]
    assert m.dtype == v.dtype == np.float32
    for _ in range(3):
        w.grad = rng.normal(size=shape).astype(np.float32)
        opt.step(lr=0.01)
    assert w.data is data and opt.m["w"] is m and opt.v["w"] is v
    assert w.data.dtype == m.dtype == v.dtype == np.float32
    assert m.any() and v.any()


def test_float32_step_matches_float64_step_to_float32_precision():
    rng = np.random.default_rng(2)
    w0 = rng.normal(size=(5, 7))
    w32, w64 = parameter(w0, dtype=np.float32), parameter(w0, dtype=np.float64)
    opt32, opt64 = AdamW({"w": w32}), AdamW({"w": w64})
    for _ in range(5):
        g = rng.normal(size=w0.shape)
        w32.grad, w64.grad = g.astype(np.float32), g
        opt32.step(lr=0.01)
        opt64.step(lr=0.01)
    np.testing.assert_allclose(w32.data, w64.data, rtol=1e-6, atol=1e-6)


def test_step_counter_increments_once_per_update():
    w = parameter(np.zeros(3), dtype=np.float64)
    opt = AdamW({"w": w})
    for expect in range(1, 5):
        w.grad = np.ones(3)
        opt.step(lr=1e-3)
        assert opt.t == expect


def test_loaded_float64_moments_are_cast_to_the_parameter_dtype():
    # Checkpoints written before the moments took the parameter dtype carry
    # float64 moments; they load as float32 copies of the stored arrays.
    w = parameter(np.zeros(3), dtype=np.float32)
    opt = AdamW({"w": w})
    state = {
        "optim.t": np.asarray(2.0),
        "optim.m.w": np.array([0.1, -0.2, 0.3]),
        "optim.v.w": np.array([0.01, 0.04, 0.09]),
    }
    opt.load_state_tensors(state)
    assert opt.t == 2
    for key, arr in (("optim.m.w", opt.m["w"]), ("optim.v.w", opt.v["w"])):
        assert arr.dtype == np.float32 and arr is not state[key]
        np.testing.assert_array_equal(arr, state[key].astype(np.float32))
    w.grad = np.ones(3, dtype=np.float32)
    opt.step(lr=0.01)
    assert state["optim.m.w"][0] == 0.1  # the caller's arrays are not updated


def test_state_tensor_roundtrip_preserves_trajectory():
    rng = np.random.default_rng(0)
    w_a = parameter(rng.normal(size=(4, 3)), dtype=np.float64)
    w_b = parameter(w_a.data.copy(), dtype=np.float64)
    opt_a = AdamW({"w": w_a})
    opt_b = AdamW({"w": w_b})
    g1 = rng.normal(size=(4, 3))
    for opt, w in ((opt_a, w_a), (opt_b, w_b)):
        w.grad = g1.copy()
        opt.step(lr=0.01)
    # Serialize A's state into a fresh optimizer around the same weights.
    state = {k: v.copy() for k, v in opt_a.state_tensors().items()}
    opt_a2 = AdamW({"w": w_a})
    opt_a2.load_state_tensors(state)
    g2 = rng.normal(size=(4, 3))
    w_a.grad = g2.copy()
    opt_a2.step(lr=0.01)
    w_b.grad = g2.copy()
    opt_b.step(lr=0.01)
    np.testing.assert_array_equal(w_a.data, w_b.data)


def test_none_grad_treated_as_zero_but_still_decays():
    w = parameter(np.full(2, 2.0), dtype=np.float64)
    opt = AdamW({"w": w}, weight_decay=0.1)
    opt.step(lr=0.5)  # no .grad set at all
    np.testing.assert_allclose(w.data, np.full(2, 2.0 * (1 - 0.05)), atol=1e-12)
