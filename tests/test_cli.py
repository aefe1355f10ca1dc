"""Command line behavior: workflows, output channels, exit codes."""
import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cycleformer
from cycleformer.checkpoint import load_checkpoint, load_model, save_checkpoint, save_model
from cycleformer.cli import main
from cycleformer.config import RunConfig, model_config, serialize_run_config
from cycleformer.data import make_synthetic_corpus
from cycleformer.model import init_parameters
from cycleformer.train import METRICS_HEADER


@pytest.fixture()
def workspace(tmp_path):
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(make_synthetic_corpus(4000, seed=0))
    return tmp_path


def write_config(path, **overrides):
    base = dict(
        variant="ZTT", all_layers=3, loop_count=2, d_model=16, n_heads=2,
        d_ff=32, vocab=259, t_max=16, steps=4, batch=2, lr="1e-3", seed=0,
    )
    base.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return os.fspath(path)


def train_small(workspace, name="run", **overrides):
    cfg = write_config(workspace / f"{name}.cfg", corpus_path=workspace / "corpus.bin", **overrides)
    ckpt = os.fspath(workspace / f"{name}.ckpt")
    assert main(["train", "--config", cfg, "--out", ckpt]) == 0
    return cfg, ckpt


def test_train_writes_checkpoint_and_metrics(workspace, capsys):
    cfg = write_config(workspace / "run.cfg", corpus_path=workspace / "corpus.bin")
    ckpt = os.fspath(workspace / "run.ckpt")
    csv = os.fspath(workspace / "metrics.csv")
    assert main(["train", "--config", cfg, "--out", ckpt, "--metrics", csv]) == 0
    out = capsys.readouterr().out
    assert "final loss" in out and "ZTT" in out
    assert os.path.exists(ckpt)
    lines = open(csv).read().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) > 1
    loaded = load_model(ckpt)
    assert loaded.step == 4
    assert loaded.rc.variant == "ZTT"


def test_train_data_flag_overrides_config(workspace):
    cfg = write_config(workspace / "run.cfg")  # no corpus_path
    ckpt = os.fspath(workspace / "run.ckpt")
    data = os.fspath(workspace / "corpus.bin")
    assert main(["train", "--config", cfg, "--out", ckpt, "--data", data]) == 0


def test_train_without_corpus_names_the_key(workspace, capsys):
    cfg = write_config(workspace / "run.cfg")
    code = main(["train", "--config", cfg, "--out", os.fspath(workspace / "x.ckpt")])
    assert code == 2
    assert "corpus_path" in capsys.readouterr().err


def test_unknown_config_key(workspace, capsys):
    cfg = workspace / "bad.cfg"
    cfg.write_text("variant=ZTT\nmomentum=0.9\n")
    code = main(["train", "--config", os.fspath(cfg), "--out", os.fspath(workspace / "x.ckpt")])
    assert code == 2
    assert "momentum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting,needle",
    [
        ("lr=nan", "lr"),
        ("lr=inf", "lr"),
        ("weight_decay=nan", "weight_decay"),
        ("weight_decay=-5", "weight_decay"),
        ("exit_threshold=-1", "exit threshold"),
        ("exit_threshold=nan", "exit threshold"),
        ("seed=-1", "seed"),
        ("vocab=100", "vocab=100"),  # below the corpus's byte ids
    ],
)
def test_out_of_range_setting_exits_2_before_training(workspace, capsys, setting, needle):
    key, value = setting.split("=")
    cfg = write_config(workspace / "run.cfg", corpus_path=workspace / "corpus.bin", **{key: value})
    out = workspace / "run.ckpt"
    assert main(["train", "--config", cfg, "--out", os.fspath(out)]) == 2
    captured = capsys.readouterr()
    assert needle in captured.err and captured.out == ""
    assert not out.exists()


def test_resume_extends_run(workspace, capsys):
    cfg, ckpt = train_small(workspace)
    csv = os.fspath(workspace / "metrics.csv")
    cfg6 = write_config(
        workspace / "run6.cfg", corpus_path=workspace / "corpus.bin", steps=6
    )
    out2 = os.fspath(workspace / "run6.ckpt")
    assert main(["train", "--config", cfg6, "--out", out2, "--resume", ckpt, "--metrics", csv]) == 0
    assert load_model(out2).step == 6
    assert "for 2 steps" in capsys.readouterr().out
    assert open(csv).read().splitlines()[0] == METRICS_HEADER


def test_resume_onto_metrics_with_another_header_exits_2(workspace, capsys):
    _, ckpt = train_small(workspace)
    csv = workspace / "old_metrics.csv"
    old = "step,split,exit,loss,ppl,cycle,zero_attn_mean,gate_mean,lr,avg_loop\n"
    csv.write_text(old)
    cfg6 = write_config(workspace / "run6.cfg", corpus_path=workspace / "corpus.bin", steps=6)
    out2 = os.fspath(workspace / "run6.ckpt")
    code = main(["train", "--config", cfg6, "--out", out2, "--resume", ckpt, "--metrics", os.fspath(csv)])
    assert code == 2
    assert "old_metrics.csv" in capsys.readouterr().err
    assert csv.read_text() == old
    assert not os.path.exists(out2)


def test_resume_already_complete(workspace, capsys):
    cfg, ckpt = train_small(workspace)
    out2 = os.fspath(workspace / "again.ckpt")
    assert main(["train", "--config", cfg, "--out", out2, "--resume", ckpt]) == 0
    assert "nothing to do" in capsys.readouterr().out
    assert not os.path.exists(out2)


def test_resume_shape_mismatch(workspace, capsys):
    _, ckpt = train_small(workspace)
    other = write_config(
        workspace / "wide.cfg", corpus_path=workspace / "corpus.bin", d_model=32
    )
    code = main(["train", "--config", other, "--out", os.fspath(workspace / "x.ckpt"), "--resume", ckpt])
    assert code == 2
    assert "different model shape" in capsys.readouterr().err


def test_diverged_training_exits_3(workspace, capsys):
    # A NaN weight is now refused at load time (exit 4); a finite but absurd
    # learning rate makes the resumed run itself diverge.
    cfg, ckpt = train_small(workspace)
    cfg6 = write_config(
        workspace / "run6.cfg", corpus_path=workspace / "corpus.bin", steps=6, lr="1e30"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", cfg6, "--out", os.fspath(workspace / "x.ckpt"), "--resume", ckpt])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


def test_eval_reports(workspace, capsys):
    _, ckpt = train_small(workspace)
    capsys.readouterr()
    data = os.fspath(workspace / "corpus.bin")
    assert main(["eval", "--ckpt", ckpt, "--data", data, "--per-exit"]) == 0
    out = capsys.readouterr().out
    assert "exit 1:" in out and "exit 2:" in out
    assert "cycle 1:" in out and "zero_attn" in out and "gate" in out
    assert "adaptive" not in out

    assert main(["eval", "--ckpt", ckpt, "--data", data, "--threshold", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "adaptive (threshold 0.5" in out and "avg_loop" in out
    counts = out.split("exits by cycle: ")[1].splitlines()[0].split()
    assert [c.split(":")[0] for c in counts] == ["1", "2"]


def test_eval_prints_a_manifest_of_its_environment(workspace, capsys, monkeypatch):
    _, ckpt = train_small(workspace)
    capsys.readouterr()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(["eval", "--ckpt", ckpt, "--data", os.fspath(workspace / "corpus.bin")]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("manifest ")
    got = json.loads(last[len("manifest "):])
    assert set(got) == {"python", "numpy", "blas", "blas_threads", "nproc", "package_sha256"}
    assert got["python"] == platform.python_version() and got["numpy"] == np.__version__
    assert got["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1" and got["blas_threads"]["MKL_NUM_THREADS"] is None
    assert got["nproc"] >= 1
    h = hashlib.sha256()
    for path in sorted(Path(cycleformer.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert got["package_sha256"] == h.hexdigest()


def test_eval_threshold_none_and_bad_value(workspace, capsys):
    _, ckpt = train_small(workspace)
    capsys.readouterr()
    data = os.fspath(workspace / "corpus.bin")
    assert main(["eval", "--ckpt", ckpt, "--data", data, "--threshold", "none"]) == 0
    assert "adaptive" not in capsys.readouterr().out
    assert main(["eval", "--ckpt", ckpt, "--data", data, "--threshold", "hot"]) == 2
    assert "--threshold" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "generate"])
@pytest.mark.parametrize("threshold", ["nan", "-1"])
def test_out_of_range_threshold_flag_exits_2(workspace, capsys, command, threshold):
    _, ckpt = train_small(workspace)
    capsys.readouterr()
    argv = {
        "eval": ["eval", "--ckpt", ckpt, "--data", os.fspath(workspace / "corpus.bin")],
        "generate": ["generate", "--ckpt", ckpt, "--prompt", "ab", "--max-tokens", "1"],
    }[command]
    assert main(argv + ["--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert "exit threshold must be >= 0" in captured.err and captured.out == ""


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


FLAG_FAULTS = [
    (["eval", "--max-batches", "0", "--threshold", "0.5"], "max_batches"),
    (["eval", "--max-batches", "0"], "max_batches"),
    (["eval", "--batch", "0"], "batch"),
    (["eval", "--batch", "-2"], "batch"),
    (["generate", "--temperature", "nan"], "temperature"),
    (["generate", "--temperature", "-1"], "temperature"),
    (["generate", "--max-tokens", "-3"], "max_new_tokens"),
    (["generate", "--seed", "-1"], "--seed"),
    (["retrofit", "--loop-count", "2", "--seed", "-1"], "--seed"),
    (["sweep", "--budget", "4", "--seeds", "x"], "--seeds"),
    (["sweep", "--budget", "4", "--seeds", ","], "--seeds"),
]


@pytest.mark.parametrize("argv,needle", FLAG_FAULTS, ids=[" ".join(a) for a, _ in FLAG_FAULTS])
def test_out_of_range_flag_exits_2(workspace, capsys, argv, needle):
    command = argv[0]
    source = dict(variant="V", loop_count=1) if command == "retrofit" else {}
    _, ckpt = train_small(workspace, **source)
    capsys.readouterr()
    data = os.fspath(workspace / "corpus.bin")
    where = {
        "eval": ["--ckpt", ckpt, "--data", data],
        "generate": ["--ckpt", ckpt],
        "retrofit": ["--ckpt", ckpt, "--out", os.fspath(workspace / "retro.ckpt")],
        "sweep": ["--data", data],
    }[command]
    assert exit_code(argv + where) == 2
    captured = capsys.readouterr()
    assert needle in captured.err and captured.out == ""


def generate_report(err):
    """The per-token cycle list and the exit histogram `generate` prints on stderr."""
    cycles_line, hist_line = err.strip().splitlines()
    cycles = cycles_line.removeprefix("cycles:").split()
    hist = [c.split(":") for c in hist_line.removeprefix("exits by cycle:").split()]
    return cycles, {int(c): int(n) for c, n in hist}


def test_generate_echo_and_cycles(workspace, capsys):
    _, ckpt = train_small(workspace)
    capsys.readouterr()  # drop the training banner
    assert main(["generate", "--ckpt", ckpt, "--prompt", "hello", "--max-tokens", "0"]) == 0
    cap = capsys.readouterr()
    assert cap.out == "hello\n"
    cycles, _ = generate_report(cap.err)
    assert len(cycles) == 6  # BOS + 5 prompt bytes
    assert set(cycles) == {"2"}  # fixed policy runs every cycle


def test_generate_adaptive_threshold_zero(workspace, capsys):
    _, ckpt = train_small(workspace)
    capsys.readouterr()
    assert main(
        ["generate", "--ckpt", ckpt, "--prompt", "ab", "--max-tokens", "3", "--threshold", "0"]
    ) == 0
    cap = capsys.readouterr()
    cycles, _ = generate_report(cap.err)
    assert len(cycles) == 6 and set(cycles) == {"1"}


@pytest.mark.parametrize("threshold", ["0", "0.5", "none"])
def test_generate_prints_exit_histogram(workspace, capsys, threshold):
    _, ckpt = train_small(workspace)
    capsys.readouterr()
    argv = ["generate", "--ckpt", ckpt, "--prompt", "abc", "--max-tokens", "5"]
    assert main(argv + ["--threshold", threshold]) == 0
    cycles, hist = generate_report(capsys.readouterr().err)
    assert list(hist) == [1, 2]
    # every decoded token is counted once: BOS, 3 prompt bytes, 5 new tokens
    assert sum(hist.values()) == len(cycles) == 1 + 3 + 5
    assert hist == {c: cycles.count(str(c)) for c in (1, 2)}


def test_threshold_defaults_to_the_checkpoint_exit_threshold(workspace, capsys):
    _, ckpt = train_small(workspace, exit_threshold=0)
    capsys.readouterr()
    data = os.fspath(workspace / "corpus.bin")
    assert main(["eval", "--ckpt", ckpt, "--data", data]) == 0
    assert "adaptive (threshold 0," in capsys.readouterr().out
    assert main(["generate", "--ckpt", ckpt, "--prompt", "ab", "--max-tokens", "2"]) == 0
    cycles, hist = generate_report(capsys.readouterr().err)
    assert set(cycles) == {"1"} and hist == {1: 5, 2: 0}
    # an explicit value overrides the checkpoint, and 'none' forces full depth
    assert main(["eval", "--ckpt", ckpt, "--data", data, "--threshold", "0.7"]) == 0
    assert "adaptive (threshold 0.7," in capsys.readouterr().out
    assert main(["eval", "--ckpt", ckpt, "--data", data, "--threshold", "none"]) == 0
    assert "adaptive" not in capsys.readouterr().out
    assert main(["generate", "--ckpt", ckpt, "--prompt", "ab", "--threshold", "none",
                 "--max-tokens", "2"]) == 0
    cycles, _ = generate_report(capsys.readouterr().err)
    assert set(cycles) == {"2"}


def test_threshold_unset_in_checkpoint_means_full_depth(workspace, capsys):
    _, ckpt = train_small(workspace)  # exit_threshold=none by default
    capsys.readouterr()
    data = os.fspath(workspace / "corpus.bin")
    assert main(["eval", "--ckpt", ckpt, "--data", data]) == 0
    assert "adaptive" not in capsys.readouterr().out


def _with_exit_threshold(ckpt, value):
    """Rewrite a checkpoint's embedded exit_threshold, as a build that did
    not check it at train time could have written it."""
    text, tensors = load_checkpoint(ckpt)
    assert "exit_threshold=none" in text
    save_checkpoint(ckpt, text.replace("exit_threshold=none", f"exit_threshold={value}"), tensors)


@pytest.mark.parametrize("variant,loop_count", [("V", 1), ("BC", 2)])
def test_checkpoint_threshold_on_a_variant_without_exit_exits_2(workspace, capsys, variant, loop_count):
    _, ckpt = train_small(workspace, variant=variant, loop_count=loop_count)
    _with_exit_threshold(ckpt, 0.5)
    assert load_model(ckpt).rc.exit_threshold == 0.5  # such checkpoints still load
    capsys.readouterr()
    data = os.fspath(workspace / "corpus.bin")
    assert main(["eval", "--ckpt", ckpt, "--data", data]) == 2
    assert "adaptive" in capsys.readouterr().err
    assert main(["generate", "--ckpt", ckpt, "--prompt", "ab", "--max-tokens", "1"]) == 2
    assert "adaptive" in capsys.readouterr().err
    assert main(["eval", "--ckpt", ckpt, "--data", data, "--threshold", "none"]) == 0


@pytest.mark.parametrize(
    "overrides",
    [dict(variant="V", loop_count=1), dict(variant="BC"), dict(variant="HTC"), dict(use_zero_token="false")],
    ids=["V", "BC", "HTC", "ZTT-without-zero-token"],
)
def test_exit_threshold_the_model_cannot_apply_exits_2_before_training(workspace, capsys, overrides):
    cfg = write_config(
        workspace / "run.cfg", corpus_path=workspace / "corpus.bin", exit_threshold=0.5, **overrides
    )
    out = workspace / "run.ckpt"
    assert main(["train", "--config", cfg, "--out", os.fspath(out)]) == 2
    captured = capsys.readouterr()
    assert "exit_threshold=none" in captured.err and captured.out == ""
    assert f"this {overrides.get('variant', 'ZTT')} model" in captured.err
    assert not out.exists()


def test_retrofit_target_that_cannot_apply_the_exit_threshold_exits_2(workspace, capsys):
    _, vckpt = train_small(workspace, name="vanilla", variant="V", all_layers=3, loop_count=1)
    _with_exit_threshold(vckpt, 0.5)
    capsys.readouterr()
    out = workspace / "retro.ckpt"
    argv = ["retrofit", "--ckpt", vckpt, "--out", os.fspath(out), "--loop-count", "2"]
    assert main(argv + ["--variant", "HTC"]) == 2  # HTC has no zero token
    assert "exit_threshold" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--variant", "ZTT"]) == 0
    assert load_model(os.fspath(out)).rc.exit_threshold == 0.5


@pytest.mark.parametrize("command", ["eval", "generate", "resume"])
def test_non_finite_weight_exits_4_naming_the_tensor(workspace, capsys, command):
    cfg, ckpt = train_small(workspace)
    text, tensors = load_checkpoint(ckpt)
    tensors["layer2.ffn.w1"][3, 5] = np.nan
    bad = os.fspath(workspace / "bad.ckpt")
    save_checkpoint(bad, text, tensors)
    capsys.readouterr()
    argv = {
        "eval": ["eval", "--ckpt", bad, "--data", os.fspath(workspace / "corpus.bin")],
        "generate": ["generate", "--ckpt", bad, "--prompt", "ab", "--max-tokens", "2"],
        "resume": ["train", "--config", cfg, "--out", os.fspath(workspace / "x.ckpt"), "--resume", bad],
    }[command]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert bad in captured.err and "layer2.ffn.w1" in captured.err and captured.out == ""


def test_generate_capacity_error(workspace, capsys):
    _, ckpt = train_small(workspace)  # t_max 16
    code = main(["generate", "--ckpt", ckpt, "--prompt", "0123456789", "--max-tokens", "20"])
    assert code == 2
    assert "t_max" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "generate"])
def test_token_id_beyond_the_model_vocab_exits_2(workspace, capsys, command):
    # vocab=200 holds the synthetic corpus's ASCII bytes, but neither byte
    # 0xF1 (241) nor the BOS id (257) that generate puts before its prompt.
    cfg, ckpt = train_small(workspace, vocab=200)
    wide = workspace / "wide.bin"
    wide.write_bytes(make_synthetic_corpus(400, seed=1) + b"\xf1")
    capsys.readouterr()
    argv, bad = {
        "train": (["train", "--config", cfg, "--out", os.fspath(workspace / "x.ckpt"),
                   "--data", os.fspath(wide)], 241),
        "eval": (["eval", "--ckpt", ckpt, "--data", os.fspath(wide)], 241),
        "generate": (["generate", "--ckpt", ckpt, "--prompt", "hi", "--max-tokens", "2"], 257),
    }[command]
    assert main(argv) == 2  # an uncaught exception would escape main instead
    captured = capsys.readouterr()
    assert f"token id {bad} does not fit vocab=200" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_sweep_table(workspace, capsys):
    base = write_config(workspace / "base.cfg", steps=2)
    data = os.fspath(workspace / "corpus.bin")
    assert main(
        ["sweep", "--budget", "4", "--variants", "V,ZTT", "--data", data, "--config", base]
    ) == 0
    table = capsys.readouterr().out.splitlines()
    assert "variant" in table[0]
    body = "\n".join(table[2:])
    assert "V" in body and "ZTT" in body


def test_retrofit_roundtrip(workspace, capsys):
    _, vckpt = train_small(workspace, name="vanilla", variant="V", all_layers=3, loop_count=1)
    capsys.readouterr()
    out = os.fspath(workspace / "retro.ckpt")
    assert main(["retrofit", "--ckpt", vckpt, "--out", out, "--variant", "ZTT", "--loop-count", "3"]) == 0
    assert "retrofitted ZTT x3" in capsys.readouterr().out
    loaded = load_model(out)
    assert loaded.rc.variant == "ZTT"
    assert loaded.rc.loop_count == 3
    assert loaded.rc.share_middle is True
    src = load_model(vckpt)
    np.testing.assert_array_equal(
        loaded.params.records["layer1"].wq.data, src.params.records["layer1"].wq.data
    )


def test_retrofit_rejects_cycled_source(workspace, capsys):
    _, zckpt = train_small(workspace)
    capsys.readouterr()
    code = main(
        ["retrofit", "--ckpt", zckpt, "--out", os.fspath(workspace / "x.ckpt"), "--loop-count", "2"]
    )
    assert code == 2
    assert "variant V" in capsys.readouterr().err


def test_checkpoint_errors_exit_4(workspace, capsys):
    junk = workspace / "junk.ckpt"
    junk.write_bytes(b"NOPE" + b"\x00" * 32)
    data = os.fspath(workspace / "corpus.bin")
    assert main(["eval", "--ckpt", os.fspath(junk), "--data", data]) == 4

    _, ckpt = train_small(workspace)
    raw = bytearray(open(ckpt, "rb").read())
    raw[4:8] = struct.pack("<I", 99)
    bumped = workspace / "future.ckpt"
    bumped.write_bytes(bytes(raw))
    assert main(["eval", "--ckpt", os.fspath(bumped), "--data", data]) == 4
    assert "version 99" in capsys.readouterr().err


def _tiny_checkpoint(path, config_text=None):
    rc = RunConfig(all_layers=3, loop_count=2, d_model=8, n_heads=2, d_ff=16, t_max=8)
    tensors = {k: t.data for k, t in init_parameters(model_config(rc)).named().items()}
    save_checkpoint(os.fspath(path), config_text or serialize_run_config(rc), tensors)


def _corrupt_byte(path, offset_of):
    _tiny_checkpoint(path)
    raw = bytearray(path.read_bytes())
    raw[offset_of(raw)] = 0xFF
    path.write_bytes(bytes(raw))


def _bad_tensor_name(path):
    # magic, version, clen, config text, tensor count, name length, name
    _corrupt_byte(path, lambda raw: 16 + struct.unpack_from("<I", raw, 8)[0] + 4)


def _bad_config_text(path):
    _corrupt_byte(path, lambda raw: 12)


def _overflowing_dims(path):
    text = b"variant=ZTT\n"
    path.write_bytes(b"".join([
        b"ZTTC", struct.pack("<II", 1, len(text)), text, struct.pack("<II", 1, 1), b"w",
        struct.pack("<BB", 0, 3), struct.pack("<3Q", *(2**32,) * 3),
    ]))


def _invalid_embedded_config(path):
    _tiny_checkpoint(path, "variant=QQQ\n")


def _embedded_threshold(raw):
    def build(path):
        _tiny_checkpoint(path)
        text, tensors = load_checkpoint(os.fspath(path))
        text = text.replace("exit_threshold=none", f"exit_threshold={raw}")
        save_checkpoint(os.fspath(path), text, tensors)
    return build


@pytest.mark.parametrize(
    "build,needle",
    [
        (_bad_tensor_name, "UTF-8"),
        (_bad_config_text, "UTF-8"),
        (_overflowing_dims, "truncated"),
        (_invalid_embedded_config, "embedded config"),
        (_embedded_threshold("-1"), "exit threshold must be >= 0"),
        (_embedded_threshold("nan"), "exit threshold must be >= 0"),
        (lambda path: path.mkdir(), "cannot read"),
    ],
    ids=[
        "tensor-name-utf8", "config-text-utf8", "dims-overflow", "invalid-embedded-config",
        "negative-exit-threshold", "nan-exit-threshold", "directory",
    ],
)
def test_malformed_checkpoint_exits_4_naming_the_file(workspace, capsys, build, needle):
    bad = workspace / "bad.ckpt"
    build(bad)
    data = os.fspath(workspace / "corpus.bin")
    assert main(["eval", "--ckpt", os.fspath(bad), "--data", data]) == 4
    err = capsys.readouterr().err
    assert os.fspath(bad) in err and needle in err


def _set(name, value):
    def edit(tensors):
        tensors[name] = np.asarray(value, dtype=np.float64)
    return edit


def _inf_moment(tensors):
    tensors["optim.m.pos_emb"] = np.full_like(tensors["optim.m.pos_emb"], np.inf)


@pytest.mark.parametrize(
    "edit,needle",
    [
        (_set("optim.t", np.nan), "optim.t"),
        (_set("optim.t", -3.0), "optim.t"),
        (_set("optim.t", 1.5), "optim.t"),
        (_set("optim.t", [4.0, 4.0]), "optim.t"),
        (_set("optim.v.tok_emb", np.zeros(3)), "optim.v.tok_emb"),
        (lambda tensors: tensors.pop("optim.m.tok_emb"), "optim.m.tok_emb"),
        (_inf_moment, "optim.m.pos_emb"),
    ],
    ids=["t-nan", "t-negative", "t-fractional", "t-shape", "moment-shape", "moment-missing", "moment-inf"],
)
def test_damaged_optimizer_state_exits_4_naming_the_file(workspace, capsys, edit, needle):
    _, ckpt = train_small(workspace)
    text, tensors = load_checkpoint(ckpt)
    edit(tensors)
    bad = os.fspath(workspace / "bad.ckpt")
    save_checkpoint(bad, text, tensors)
    cfg6 = write_config(workspace / "run6.cfg", corpus_path=workspace / "corpus.bin", steps=6)
    capsys.readouterr()
    assert main(["train", "--config", cfg6, "--out", os.fspath(workspace / "x.ckpt"), "--resume", bad]) == 4
    err = capsys.readouterr().err
    assert bad in err and needle in err


def test_checkpoint_without_optimizer_state_evaluates_and_resumes(workspace, capsys):
    cfg, ckpt = train_small(workspace)
    text, tensors = load_checkpoint(ckpt)
    weights = os.fspath(workspace / "weights.ckpt")
    save_checkpoint(weights, text, {k: v for k, v in tensors.items() if not k.startswith("optim.")})
    data = os.fspath(workspace / "corpus.bin")
    assert main(["eval", "--ckpt", weights, "--data", data]) == 0
    out = os.fspath(workspace / "x.ckpt")
    assert main(["train", "--config", cfg, "--out", out, "--resume", weights]) == 0
    assert load_model(out).step == 4


def test_missing_files_exit_2(workspace, capsys):
    assert main(["train", "--config", "no_such.cfg", "--out", "x.ckpt"]) == 2
    _, ckpt = train_small(workspace)
    assert main(["eval", "--ckpt", ckpt, "--data", "no_such.bin"]) == 2


@pytest.mark.parametrize("flag", ["--config", "--metrics", "eval --data"])
def test_directory_given_for_a_file_exits_2_naming_it(workspace, capsys, flag):
    cfg, ckpt = train_small(workspace)
    capsys.readouterr()
    folder = workspace / "folder"
    folder.mkdir()
    argv = {
        "--config": ["train", "--config", os.fspath(folder), "--out", ckpt],
        "--metrics": ["train", "--config", cfg, "--out", ckpt, "--metrics", os.fspath(folder)],
        "eval --data": ["eval", "--ckpt", ckpt, "--data", os.fspath(folder)],
    }[flag]
    assert main(argv) == 2
    assert os.fspath(folder) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "retrofit"])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_exits_2_before_any_work(workspace, capsys, command, where):
    out = workspace / "folder"
    out.mkdir()
    if where == "missing parent":
        out = workspace / "missing" / "x.ckpt"
    csv = workspace / "metrics.csv"
    if command == "train":
        cfg = write_config(workspace / "run.cfg", corpus_path=workspace / "corpus.bin")
        argv = ["train", "--config", cfg, "--out", os.fspath(out), "--metrics", os.fspath(csv)]
    else:
        _, vanilla = train_small(workspace, variant="V", all_layers=3, loop_count=1)
        capsys.readouterr()
        argv = ["retrofit", "--ckpt", vanilla, "--out", os.fspath(out), "--loop-count", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert os.fspath(out) in captured.err and captured.out == ""
    assert not csv.exists()  # no step ran: not even the metrics header was written
    assert out.is_dir() if where == "directory" else not out.parent.exists()


def test_argparse_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["explode"])
    assert exc.value.code == 2


def test_subprocess_pipeline(workspace):
    # the module must work as a process: real exit codes, real streams
    cfg = write_config(workspace / "run.cfg", corpus_path=workspace / "corpus.bin")
    ckpt = os.fspath(workspace / "run.ckpt")
    env = dict(os.environ)
    # the child imports the same sources as this process
    src = os.path.dirname(os.path.dirname(cycleformer.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "cycleformer.cli", "train", "--config", cfg, "--out", ckpt],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    r = subprocess.run(
        [
            sys.executable, "-m", "cycleformer.cli", "generate",
            "--ckpt", ckpt, "--prompt", "hi", "--max-tokens", "2", "--threshold", "1",
        ],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("hi")
    assert r.stderr.strip().startswith("cycles:")
    r = subprocess.run(
        [sys.executable, "-m", "cycleformer.cli", "eval", "--ckpt", ckpt, "--data", "missing"],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 2
