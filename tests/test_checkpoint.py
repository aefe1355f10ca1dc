"""Checkpoint container: byte-stable round trips, error taxonomy, resume."""
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cycleformer.checkpoint import (
    MAGIC,
    VERSION,
    LoadedModel,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from cycleformer.config import RunConfig, model_config, serialize_run_config
from cycleformer.errors import (
    CheckpointError,
    CheckpointMagicError,
    CheckpointVersionError,
)
from cycleformer.model import init_parameters
from cycleformer.optim import AdamW
from cycleformer.train import TrainPlan, train


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "alpha": rng.normal(size=(3, 4)).astype(np.float32),
        "beta": rng.normal(size=(2, 2, 5)).astype(np.float64),
        "gamma": np.asarray(7.0, dtype=np.float64),  # 0-dim
        "delta": rng.normal(size=17).astype(np.float32),
    }


def test_round_trip_preserves_everything(tmp_path):
    path = os.fspath(tmp_path / "ckpt.bin")
    tensors = sample_tensors()
    save_checkpoint(path, "variant=ZTT\nsteps=3\n", tensors)
    text, loaded = load_checkpoint(path)
    assert text == "variant=ZTT\nsteps=3\n"
    assert sorted(loaded) == sorted(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape  # 0-dim must stay 0-dim
        np.testing.assert_array_equal(loaded[name], arr, err_msg=name)


def test_save_load_save_is_byte_identical(tmp_path):
    a = os.fspath(tmp_path / "a.bin")
    b = os.fspath(tmp_path / "b.bin")
    save_checkpoint(a, "seed=1\n", sample_tensors())
    text, tensors = load_checkpoint(a)
    save_checkpoint(b, text, tensors)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_header_layout_is_pinned(tmp_path):
    path = os.fspath(tmp_path / "h.bin")
    save_checkpoint(path, "x=1", {"w": np.zeros((2,), dtype=np.float32)})
    raw = open(path, "rb").read()
    assert raw[:4] == b"ZTTC" == MAGIC
    assert struct.unpack("<I", raw[4:8])[0] == VERSION == 1
    assert struct.unpack("<I", raw[8:12])[0] == 3  # len("x=1")
    assert raw[12:15] == b"x=1"
    assert struct.unpack("<I", raw[15:19])[0] == 1  # tensor count
    # name, then dtype code 0 (f32), ndim 1, dim 2, and 8 bytes of zeros
    assert raw[23:24] == b"w"
    assert raw[24:26] == bytes([0, 1])
    assert struct.unpack("<Q", raw[26:34])[0] == 2
    assert len(raw) == 34 + 8


def test_bad_magic(tmp_path):
    path = os.fspath(tmp_path / "junk.bin")
    open(path, "wb").write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointMagicError):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    path = os.fspath(tmp_path / "v9.bin")
    save_checkpoint(path, "x=1", {"w": np.zeros(2, dtype=np.float32)})
    raw = bytearray(open(path, "rb").read())
    raw[4:8] = struct.pack("<I", 9)
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_truncation_and_trailing_garbage(tmp_path):
    path = os.fspath(tmp_path / "t.bin")
    save_checkpoint(path, "x=1", sample_tensors())
    raw = open(path, "rb").read()
    cut = os.fspath(tmp_path / "cut.bin")
    open(cut, "wb").write(raw[: len(raw) - 5])
    with pytest.raises(CheckpointError):
        load_checkpoint(cut)
    fat = os.fspath(tmp_path / "fat.bin")
    open(fat, "wb").write(raw + b"\x00\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(fat)


def test_unsupported_dtype_rejected_and_target_untouched(tmp_path):
    path = os.fspath(tmp_path / "keep.bin")
    save_checkpoint(path, "x=1", {"w": np.ones(2, dtype=np.float32)})
    before = open(path, "rb").read()
    with pytest.raises(CheckpointError):
        save_checkpoint(path, "x=1", {"w": np.ones(2, dtype=np.int64)})
    assert open(path, "rb").read() == before
    assert not os.path.exists(path + ".tmp")


def test_failed_replace_leaves_no_temp_file_and_the_target_untouched(tmp_path, monkeypatch):
    path = os.fspath(tmp_path / "keep.bin")
    save_checkpoint(path, "x=1", {"w": np.ones(2, dtype=np.float32)})
    before = open(path, "rb").read()

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_checkpoint(path, "x=2", {"w": np.zeros(3, dtype=np.float32)})
    assert open(path, "rb").read() == before
    assert not os.path.exists(path + ".tmp")
    with pytest.raises(OSError):
        save_checkpoint(os.fspath(tmp_path / "new.bin"), "x=2", sample_tensors())
    assert sorted(os.listdir(tmp_path)) == ["keep.bin"]


# ---------------------------------------------------------------------------
# model-level helpers


def small_rc():
    return RunConfig(
        variant="ZTT", all_layers=3, loop_count=2, d_model=16, n_heads=2,
        d_ff=32, vocab=59, t_max=8, steps=6, batch=2, lr=2e-3, seed=5,
        early_exit_heads=True,
    )


def test_model_round_trip(tmp_path):
    path = os.fspath(tmp_path / "model.bin")
    rc = small_rc()
    cfg = model_config(rc)
    params = init_parameters(cfg, seed=3)
    opt = AdamW(params.named(), weight_decay=rc.weight_decay)
    save_model(path, rc, params, opt)
    loaded = load_model(path)
    assert isinstance(loaded, LoadedModel)
    assert serialize_run_config(loaded.rc) == serialize_run_config(rc)
    assert loaded.step == 0
    for name, t in params.named().items():
        np.testing.assert_array_equal(loaded.params.named()[name].data, t.data, err_msg=name)


def test_model_without_optimizer_state(tmp_path):
    path = os.fspath(tmp_path / "weights.bin")
    rc = small_rc()
    params = init_parameters(model_config(rc), seed=3)
    save_model(path, rc, params)
    loaded = load_model(path)
    assert loaded.optim_state == {}
    assert loaded.step == 0
    opt = loaded.make_optimizer()
    assert opt.t == 0


def test_tensor_name_mismatch_is_detected(tmp_path):
    path = os.fspath(tmp_path / "broken.bin")
    rc = small_rc()
    params = init_parameters(model_config(rc), seed=3)
    tensors = {k: t.data for k, t in params.named().items()}
    del tensors["final_norm.g"]
    tensors["mystery"] = np.zeros(3, dtype=np.float32)
    save_checkpoint(path, serialize_run_config(rc), tensors)
    with pytest.raises(CheckpointError) as exc:
        load_model(path)
    assert "final_norm.g" in str(exc.value)
    assert "mystery" in str(exc.value)


def test_shape_mismatch_is_detected(tmp_path):
    path = os.fspath(tmp_path / "shape.bin")
    rc = small_rc()
    params = init_parameters(model_config(rc), seed=3)
    tensors = {k: t.data for k, t in params.named().items()}
    tensors["final_norm.g"] = np.ones(7, dtype=np.float32)
    save_checkpoint(path, serialize_run_config(rc), tensors)
    with pytest.raises(CheckpointError):
        load_model(path)


@pytest.fixture(scope="module")
def tiny_model_bytes(tmp_path_factory):
    rc = RunConfig(all_layers=3, loop_count=2, d_model=8, n_heads=2, d_ff=16, vocab=11, t_max=4)
    params = init_parameters(model_config(rc), seed=3)
    path = os.fspath(tmp_path_factory.mktemp("fuzz") / "tiny.bin")
    save_model(path, rc, params, AdamW(params.named()))
    return open(path, "rb").read()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_corrupted_model_loads_or_raises_checkpoint_error(tiny_model_bytes, tmp_path_factory, data):
    raw = bytearray(tiny_model_bytes)
    if data.draw(st.booleans(), label="flip"):
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
    else:
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
    path.write_bytes(bytes(raw))
    try:
        load_model(os.fspath(path))
    except CheckpointError:
        pass


def test_resume_from_float64_moments_matches_the_uninterrupted_run(tmp_path):
    # A checkpoint whose moments are float64, as older code wrote them: they
    # load as the float32 state, so the resumed run retraces the full one.
    rc = small_rc()
    cfg = model_config(rc)
    ids = np.random.default_rng(3).integers(0, 59, size=4000).astype(np.int64)
    plan = TrainPlan(steps=rc.steps, batch=rc.batch, lr=rc.lr, seed=rc.seed)
    full = train(cfg, plan, ids)
    half = train(cfg, plan, ids, stop_step=3)
    tensors = {k: t.data for k, t in half.params.named().items()}
    for key, arr in half.optimizer.state_tensors().items():
        tensors[key] = arr.astype(np.float64)
    path = os.fspath(tmp_path / "f64.bin")
    save_checkpoint(path, serialize_run_config(rc), tensors)

    loaded = load_model(path)
    assert loaded.optim_state["optim.m.tok_emb"].dtype == np.float64
    optimizer = loaded.make_optimizer()
    assert {a.dtype for a in (*optimizer.m.values(), *optimizer.v.values())} == {np.dtype(np.float32)}
    resumed = train(cfg, plan, ids, params=loaded.params, optimizer=optimizer, start_step=loaded.step)
    assert full.losses[3:] == resumed.losses
    for name, t in full.params.named().items():
        np.testing.assert_array_equal(t.data, resumed.params.named()[name].data, err_msg=name)


def test_resume_through_checkpoint_is_bitwise(tmp_path):
    rc = small_rc()
    cfg = model_config(rc)
    ids = np.random.default_rng(2).integers(0, 59, size=4000).astype(np.int64)
    plan = TrainPlan(steps=rc.steps, batch=rc.batch, lr=rc.lr, seed=rc.seed)

    full = train(cfg, plan, ids)

    half = train(cfg, plan, ids, stop_step=3)
    path = os.fspath(tmp_path / "mid.bin")
    save_model(path, rc, half.params, half.optimizer)

    loaded = load_model(path)
    assert loaded.step == 3
    resumed = train(
        cfg, plan, ids,
        params=loaded.params, optimizer=loaded.make_optimizer(), start_step=loaded.step,
    )
    assert full.losses[3:] == resumed.losses
    for name, t in full.params.named().items():
        np.testing.assert_array_equal(t.data, resumed.params.named()[name].data, err_msg=name)
