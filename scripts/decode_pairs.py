#!/usr/bin/env python3
"""Alternating decode rounds of two checkouts in one process, summed up in a BENCH file.

    python3 scripts/decode_pairs.py PARENT CHANGE --rounds 16 --out BENCH_<pr>.json

PARENT and CHANGE are the roots of two checkouts. The script loads both
trees' `src/cycleformer` packages into this one process under distinct
module names, with the BLAS thread variables of perfbench/common.py set
before numpy loads. Each side loads the benchmark's fixed checkpoint
(perfbench/fixed) with its own package. The inputs are the checkpoint's
first PROMPTS pool prompts, cut from the committed validation tail.

A round decodes every prompt with each side's `adaptive.decode_step`,
greedily, until the context holds t_max positions: once at full depth and
once at the benchmark's threshold (0.5). For each policy both sides run
back to back; the parent goes first in even rounds and the change in odd
ones, so a drift of the machine's speed hits both sides alike. Each
`decode_step` call is timed on its own, and prompt positions and generated
positions are summed apart into ms per position. One untimed round runs
first, to warm up both sides.

Per policy and per kind of position (prompt, generated) the summary
gives each side's median and quartiles over rounds (`bench_pairs.quartiles`),
the median of the per-round change/parent ratios, how many rounds the change
won (strictly faster), and two verdicts:

- `claim_holds`: the change won at least 9 in 10 of the rounds, and its
  median ms per position beats the parent's by more than the parent's
  round-to-round interquartile range;
- `no_worse`: the change's median ms per position is worse than the
  parent's by at most the parent's interquartile range.

It also says whether the generated ids of the two sides are identical in
every round, and how many position-cycles lazy deepening re-ran on each
side: the final `DecodeCache.depth` sum minus the `cycles_used` sum, over
all prompts of the first round.

Each invocation appends one set, with its manifest, to the `decode` entry
of the output file, and keeps every other key (`bench_pairs.py`'s
workloads among them) and every earlier set.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402  (stdlib only)
from perfbench import common  # noqa: E402  (stdlib only)

PROMPTS = 8
SIDES = ("parent", "change")
POLICIES = {"full": None, f"{common.THRESHOLD:g}": common.THRESHOLD}


def load_side(name: str, root: Path) -> types.SimpleNamespace:
    """`root`'s package imported as `name`, with the fixed checkpoint loaded
    by it and its `cli._manifest()`."""
    pkg = root / "src" / "cycleformer"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    adaptive, checkpoint, cli, data = (importlib.import_module(f"{name}.{sub}")
                                       for sub in ("adaptive", "checkpoint", "cli", "data"))
    loaded = checkpoint.load_model(str(common.CKPT_PATH))
    return types.SimpleNamespace(adaptive=adaptive, data=data, params=loaded.params,
                                 config=loaded.config, manifest=cli._manifest())


def decode(side: types.SimpleNamespace, prompts: list, threshold: float | None) -> dict:
    """Greedy decode of every prompt to t_max positions: ms per prompt and
    per generated position, the generated ids, and the position-cycles
    deepening re-ran."""
    adaptive = side.adaptive
    policy = adaptive.ExitPolicy(threshold)
    seconds = {"prompt": 0.0, "gen": 0.0}
    positions = {"prompt": 0, "gen": 0}
    ids, deepened = [], 0
    for prompt in prompts:
        cache = adaptive.DecodeCache(side.params, side.config)
        new: list[int] = []
        for tok in prompt:
            t0 = perf_counter()
            logits, _ = adaptive.decode_step(cache, int(tok), policy)
            seconds["prompt"] += perf_counter() - t0
        while cache.n_pos < side.config.t_max:
            new.append(int(logits.argmax()))
            t0 = perf_counter()
            logits, _ = adaptive.decode_step(cache, new[-1], policy)
            seconds["gen"] += perf_counter() - t0
        positions["prompt"] += len(prompt)
        positions["gen"] += len(new)
        ids.append(new)
        deepened += int(cache.depth.sum()) - sum(cache.cycles_used)
    return {"prompt_ms": seconds["prompt"] * 1e3 / positions["prompt"],
            "gen_ms": seconds["gen"] * 1e3 / positions["gen"],
            "ids": ids, "deepened": deepened}


def compare_times(parent: list[float], change: list[float]) -> dict:
    """One timing's summary over rounds: parent[i] and change[i] ran in round i."""
    p, c = bench_pairs.quartiles(parent), bench_pairs.quartiles(change)
    iqr = p["q3"] - p["q1"]
    wins = sum(b < a for a, b in zip(parent, change, strict=True))
    return {
        "parent": p,
        "change": c,
        "parent_iqr": iqr,
        "ratio_median": statistics.median(b / a for a, b in zip(parent, change)),
        "change_wins": wins,
        "rounds": len(parent),
        "claim_holds": wins >= bench_pairs.CLAIM_WIN_SHARE * len(parent) and p["median"] - c["median"] > iqr,
        "no_worse": c["median"] - p["median"] <= iqr,
    }


def summarize(rounds: list[dict]) -> dict:
    """Per policy, the timings' summaries, whether the ids agree in every
    round, and each side's deepening in the first round. A round maps each
    policy to each side's `decode` result."""
    out = {}
    for policy in rounds[0]:
        runs = {side: [r[policy][side] for r in rounds] for side in SIDES}
        out[policy] = {
            **{key: compare_times(*([run[key] for run in runs[side]] for side in SIDES))
               for key in ("prompt_ms", "gen_ms")},
            "ids_identical": all(a["ids"] == b["ids"] for a, b in zip(*runs.values())),
            "deepened": {side: runs[side][0]["deepened"] for side in SIDES},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--rounds", type=int, required=True, help="timed rounds, at least 1")
    ap.add_argument("--out", type=Path, required=True, help="the JSON file to write, e.g. BENCH_<pr>.json")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error(f"--rounds must be >= 1, got {args.rounds}")
    for root in (args.parent, args.change):
        if not (root / "src" / "cycleformer" / "__init__.py").is_file():
            ap.error(f"{root} has no src/cycleformer package")
    for var in common.BLAS_ENV:
        os.environ[var] = str(common.BLAS_THREADS)  # before numpy loads BLAS
    sides = {side: load_side(f"cycleformer_{side}", root)
             for side, root in zip(SIDES, (args.parent, args.change))}
    valid = sides["parent"].data.ByteVocabulary().encode(common.VALID_PATH.read_bytes())
    pool = json.loads(common.META_PATH.read_text())["prompt_pool"][:PROMPTS]
    prompts = [valid[start : start + length] for start, length in pool]

    rounds = []
    for i in range(-1, args.rounds):  # round -1 warms up and is not kept
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        rounds.append({policy: {side: decode(sides[side], prompts, threshold) for side in order}
                       for policy, threshold in POLICIES.items()})
        if i >= 0:
            print(f"round {i}: " + ", ".join(
                f"{policy} {side} gen {r[side]['gen_ms']:.3f} ms" for policy, r in rounds[-1].items()
                for side in SIDES), file=sys.stderr, flush=True)
    rounds = rounds[1:]
    summary = summarize(rounds)
    out = json.loads(args.out.read_text()) if args.out.is_file() else {}
    out.setdefault("decode", {"sets": []})["sets"].append({
        "prompts": PROMPTS,
        "manifest": {side: sides[side].manifest for side in SIDES},
        "policies": summary,
        "rounds": [{"first": SIDES[i % 2],
                    **{policy: {side: {k: v for k, v in r[policy][side].items() if k != "ids"} for side in SIDES}
                       for policy in r}}
                   for i, r in enumerate(rounds)],
    })
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for policy, s in summary.items():
        print(f"decode {policy}: gen ratio {s['gen_ms']['ratio_median']:.3f} "
              f"({s['gen_ms']['change_wins']}/{len(rounds)} faster, no_worse {s['gen_ms']['no_worse']}), "
              f"prompt ratio {s['prompt_ms']['ratio_median']:.3f}, ids identical {s['ids_identical']}, "
              f"deepened {s['deepened']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
