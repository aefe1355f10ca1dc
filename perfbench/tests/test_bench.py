"""The benchmark's own tests: every workload completes a tiny run with no
failed operation and prints every metric with its unit; the traced run
reports exactly the per-layer names of BENCHMARK.json and shows each
workload doing what it claims.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, root: Path = ROOT, seconds: str = "1"):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def test_benchmark_json_matches_metric_definitions():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in PER_LAYER.items()
    }


@pytest.fixture(scope="module")
def traced():
    return {w: result(run(w, trace=1))[0] for w in WORKLOADS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    res, text = result(run(workload, trace=0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {k: v[0] for k, v in END_TO_END.items()}
    for name, metric in res["metrics"].items():
        assert metric["value"] > 0, name
        assert any(line.split()[:1] == [name] and metric["unit"] in line for line in text.splitlines()), name
    if workload == "train":
        # Past the warm-up the model has learnt: an optimizer that does not
        # update leaves the loss near ln(256), the loss of a uniform guess.
        assert res["metrics"]["nll"]["value"] < 0.8 * math.log(256)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_the_per_layer_names(traced, workload):
    res = traced[workload]
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {k: v[0] for k, v in PER_LAYER.items()}


def test_traced_runs_show_what_each_workload_exercises(traced):
    value = {w: {k: v["value"] for k, v in r["metrics"].items()} for w, r in traced.items()}
    decode = value["eval_adaptive"]
    assert decode["adaptive.deepen_cycles"] > 0
    assert decode["adaptive.useful_cycle_ratio"] < 1
    assert decode["adaptive.cycles_per_token"] < 3
    assert sum(decode[f"adaptive.exit_hist.c{c}"] for c in (1, 2, 3)) == 1024
    assert decode["adaptive.speedup_vs_full"] > 0
    for w in WORKLOADS:
        on_train = w == "train"
        assert (value[w]["autodiff.backward_ms"] > 0) == on_train, w
        assert (value[w]["optim.step_ms"] > 0) == on_train, w
        assert (value[w]["adaptive.deepen_cycles"] > 0) == (not on_train), w
    assert value["train"]["autodiff.tape_records"] > 0
    # Forward primitives only: the backward pass is not counted as `other`.
    assert value["train"]["autodiff.other.fwd_ms"] < 0.5 * value["train"]["autodiff.backward_ms"]
    assert value["eval_adaptive"]["autodiff.tape_records"] == 0


def bench_only_copy(root: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, root / rel, ignore=shutil.ignore_patterns("__pycache__"))


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    bench_only_copy(tmp_path)
    proc = run("train", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_altered_validation_text_fails_without_a_result(tmp_path):
    bench_only_copy(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    valid = tmp_path / "perfbench" / "fixed" / "ztt_canonical_valid.bin"
    valid.write_bytes(valid.read_bytes()[:-1] + b"x")
    proc = run("eval_adaptive", trace=0, root=tmp_path)
    assert proc.returncode == 2 and "ztt_canonical_valid.bin" in proc.stderr
    assert proc.stdout.strip() == ""
