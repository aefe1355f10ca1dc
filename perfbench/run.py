#!/usr/bin/env python3
"""cycleformer benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: train and eval_adaptive (see
metrics.py for why each exists; decode is measured in eval_adaptive's
traced run). With
--trace 0 the result carries every end-to-end metric; with --trace 1 it
carries every per-layer metric from a run that issues each request twice,
untraced then traced.

Each run starts the workload in fresh worker processes with the BLAS
thread count fixed, so set-up time and peak memory belong to the workload.
setup_s is the median over SETUP_SAMPLES processes of the time from
starting the process to the end of set-up (imports; corpus generation and
model init, or validation text and checkpoint load; one warm-up request).
The lines before the last one are for people: a table of every metric with
its unit and sample count, the checks made on the outputs, and a manifest
of the environment.
The exit status is 0 whenever a result line is printed, 2 when the
checkout is unusable (no sources, missing or altered fixed files), and 1
when a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import common
from metrics import END_TO_END, PER_LAYER, WORKLOADS

SETUP_SAMPLES = 5
WORKER = common.BENCH_DIR / "worker.py"


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def preflight() -> str | None:
    """Why this checkout cannot be benchmarked, or None."""
    if not common.PACKAGE.is_dir():
        return f"no package sources at {common.PACKAGE.relative_to(common.ROOT)}"
    for path in (common.CKPT_PATH, common.META_PATH, common.VALID_PATH):
        if not path.is_file():
            return f"fixed checkpoint file missing: {path.relative_to(common.ROOT)}"
    meta = json.loads(common.META_PATH.read_text())
    for path, key in ((common.CKPT_PATH, "sha256"), (common.VALID_PATH, "valid_sha256")):
        got = common.sha256_file(path)
        if got != meta[key]:
            return f"{path.relative_to(common.ROOT)} sha256 {got} differs from the recorded {meta[key]}"
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({k: str(common.BLAS_THREADS) for k in common.BLAS_ENV})
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start one worker; return (its start time, its result)."""
    started = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=common.ROOT, env=worker_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(common.ROOT.parent))

    def git(*cmd):
        try:
            out = subprocess.run(["git", *cmd], cwd=common.ROOT, env=env, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {"git_commit": commit, "git_dirty": None if status is None else bool(status)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cycleformer benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive", 2)
    problem = preflight()
    if problem:
        return fail(problem, 2)

    common_args = [args.workload, str(args.seed), str(args.seconds)]
    # A worker runs for --seconds plus set-up, the requests nll needs, the
    # checks and, when traced, the decode sample.
    timeout = 2 * args.seconds + 120
    setup = []
    try:
        if args.trace:
            _, res = run_worker(common_args + ["trace"], timeout)
        else:
            for _ in range(SETUP_SAMPLES - 1):
                started, probe = run_worker(common_args + ["probe"], timeout)
                setup.append(probe["ready_at"] - started)
            started, res = run_worker(common_args + ["measure"], timeout)
            setup.append(res["ready_at"] - started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc), 1)

    manifest = {**res["manifest"], **git_state()}
    if args.trace:
        spec = {k: v[:2] for k, v in PER_LAYER.items()}
        values = {k: (v, res["traced_requests"]) for k, v in res["per_layer"].items()}
    else:
        spec = {k: v[:2] for k, v in END_TO_END.items()}
        values = {k: tuple(v) for k, v in res["end_to_end"].items()}
        values["setup_s"] = (statistics.median(setup), len(setup))
    missing = sorted(spec.keys() - values.keys())
    if missing:
        return fail(f"worker reported no value for {missing}", 1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (unit, better) in spec.items():
        value, n = values[name]
        print(f"  {name:<34}{value:>14.4f} {unit:<11}({better} is better; n={n})")
    for check in res["checks"]:
        print(f"  check {'ok' if check['ok'] else 'FAILED'}: {check['check']}")
    if args.trace:
        print(res["layer_table"])
        print(f"  spans written to {res['trace_file']}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, (unit, _) in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
