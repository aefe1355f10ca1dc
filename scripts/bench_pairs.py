#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summed up in one JSON file.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload eval_adaptive \\
        --seeds 21-30 --out BENCH_<pr>.json

PARENT and CHANGE are the roots of two checkouts. For each seed the script
runs the benchmark command of PARENT's BENCHMARK.json (`perfbench/run.py`)
with `--workload W --seed S --seconds <run_seconds> --trace 0` once in each
checkout: one pair. The parent runs first in the first pair, the change in
the second, and so on, so a drift of the machine's speed hits both sides
alike. `--workload` may repeat; each workload runs all its pairs in turn.

One set of pairs holds every run's end-to-end metrics, the manifest line
`run.py` printed for each side's first run, and, per metric:
each side's median and quartiles (inclusive method), how many pairs the
change won (strictly better in the metric's direction), and two verdicts:

- `claim_holds`: the change won at least 9 in 10 of the pairs, and its
  median beats the parent's by more than the parent's interquartile range;
- `within_bound`: the change's median is worse than the parent's by at most
  the metric's `bound`, a fraction of the parent's median.

A set's `no_regression` holds when every metric is within its bound and the
change fails no larger share of its operations than the parent.

Each invocation appends one set of pairs per workload to the output file and
keeps every earlier set, so the file reports every run made. Over a
workload's sets, `across_sets` gives per metric each set's `worse_by`, their
spread, the margin from the worst of them to the bound, and `resolved`: the
spread is smaller than that margin, so the sets agree on the verdict. A
metric whose sets spread wider than its margin is unresolved, not unchanged.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """'A-B' (inclusive) or 'A' as a list of seeds."""
    lo, _, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B or A, got {text!r}") from None
    if first > last:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's summary over paired runs: parent[i] and change[i] share a seed."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change, strict=True))
    gain = sign * (c["median"] - p["median"])
    worse_by = -gain / abs(p["median"]) if p["median"] else (0.0 if gain >= 0 else math.inf)
    return {
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "change_wins": wins,
        "pairs": len(parent),
        "claim_holds": wins >= CLAIM_WIN_SHARE * len(parent) and gain > p["q3"] - p["q1"],
        "worse_by": worse_by,
        "within_bound": worse_by <= bound,
    }


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One `run.py --trace 0` run: its result line plus the manifest it printed."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(args)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    manifests = [line[len("manifest "):] for line in lines if line.startswith("manifest ")]
    result["manifest"] = json.loads(manifests[-1]) if manifests else None
    return result


def run_pairs(parent: Path, change: Path, bench: dict, workload: str, seeds: list[int]) -> dict:
    sides = {"parent": parent, "change": change}
    runs = []
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(sides[side], bench["command"], workload, seed, bench["run_seconds"])
            tok_s = run[side]["metrics"].get("tok_s", {}).get("value", float("nan"))
            print(f"{workload} seed {seed} {side}: tok_s {tok_s:.1f}", file=sys.stderr, flush=True)
        runs.append(run)
    return summarize(bench, runs)


def summarize(bench: dict, runs: list[dict]) -> dict:
    metrics = {}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in ("parent", "change")}
        metrics[name] = {"unit": spec["unit"], **compare(values["parent"], values["change"],
                                                         spec["better"], spec["bound"])}
    failed_share = {
        side: sum(r[side]["failed"] for r in runs) / max(1, sum(r[side]["attempted"] for r in runs))
        for side in ("parent", "change")
    }
    return {
        "seeds": [r["seed"] for r in runs],
        "metrics": metrics,
        "failed_share": failed_share,
        "no_regression": (all(m["within_bound"] for m in metrics.values())
                          and failed_share["change"] <= failed_share["parent"]),
        "manifest": {side: runs[0][side]["manifest"] for side in ("parent", "change")},
        "runs": [{"seed": r["seed"], "first": r["first"],
                  **{side: {"metrics": {k: v["value"] for k, v in r[side]["metrics"].items()},
                            "attempted": r[side]["attempted"], "failed": r[side]["failed"]}
                     for side in ("parent", "change")}}
                 for r in runs],
    }


def across_sets(sets: list[dict]) -> dict:
    """Per metric, how far the change's median is worse in each set, and
    whether the sets' spread leaves the bound verdict resolved."""
    out = {}
    for name, first in sets[0]["metrics"].items():
        worse = [s["metrics"][name]["worse_by"] for s in sets]
        spread, margin = max(worse) - min(worse), first["bound"] - max(worse)
        out[name] = {"worse_by": worse, "spread": spread, "margin": margin, "resolved": spread < margin}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", action="append", required=True, help="a workload of BENCHMARK.json; may repeat")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    ap.add_argument("--out", type=Path, required=True, help="the JSON file to write, e.g. BENCH_<pr>.json")
    args = ap.parse_args(argv)
    bench_file = args.parent / "BENCHMARK.json"
    for root in (args.parent, args.change):
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{root} has no perfbench/run.py")
    bench = json.loads(bench_file.read_text())
    known = {w["name"] for w in bench["workloads"]}
    unknown = sorted(set(args.workload) - known)
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; {bench_file} lists {sorted(known)}")
    out = json.loads(args.out.read_text()) if args.out.is_file() else {}
    out["benchmark"] = {"command": bench["command"], "run_seconds": bench["run_seconds"], "trace": 0}
    workloads = out.setdefault("workloads", {})
    for workload in args.workload:
        entry = workloads.setdefault(workload, {"sets": []})
        verdict = run_pairs(args.parent, args.change, bench, workload, args.seeds)
        entry["sets"].append(verdict)
        entry["across_sets"] = across_sets(entry["sets"])
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        claims = [name for name, m in verdict["metrics"].items() if m["claim_holds"]]
        unresolved = [name for name, m in entry["across_sets"].items() if not m["resolved"]]
        print(f"{workload}: no_regression {verdict['no_regression']}, claim holds for {claims or 'none'}, "
              f"unresolved over {len(entry['sets'])} set(s): {unresolved or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
