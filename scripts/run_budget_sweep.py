#!/usr/bin/env python3
"""Spend one effective-depth budget every way and compare validation ppl.

Default layouts at budget 6 are the canonical ones: the whole-stack repeat
at (3, 2) and the head-tail middles at (3, 4); pass --all-layouts to train
every feasible (layers, loops) pair instead. Every CSV row carries the
code-and-options stamp of scripts/artifact_stamp.py.
"""
import argparse
import csv
import os
import sys

from artifact_stamp import stamp
from cycleformer.config import RunConfig
from cycleformer.data import ByteVocabulary, load_corpus, make_synthetic_corpus, split_corpus
from cycleformer.evaluate import budget_sweep, enumerate_layouts, format_sweep

PINNED_LAYOUTS = {"V": [(6, 1)], "BC": [(3, 2)], "HTC": [(3, 4)], "ZTT": [(3, 4)]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budget", type=int, default=6)
    ap.add_argument("--variants", default="BC,HTC,ZTT")
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--corpus", default=None, help="byte corpus; default: 1MB synthetic")
    ap.add_argument("--corpus-bytes", type=int, default=1_000_000)
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--d-model", type=int, default=64)
    ap.add_argument("--n-heads", type=int, default=4)
    ap.add_argument("--d-ff", type=int, default=256)
    ap.add_argument("--t-max", type=int, default=64)
    ap.add_argument("--batch", type=int, default=8)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--valid-frac", type=float, default=0.1)
    ap.add_argument("--all-layouts", action="store_true")
    ap.add_argument("--csv", default=None, help="also write rows to this CSV path")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    fingerprint = stamp(args)  # before training: the code that runs, not what is there after
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    if args.corpus:
        ids = load_corpus(args.corpus)
    else:
        ids = ByteVocabulary().encode(make_synthetic_corpus(args.corpus_bytes, seed=0))
    train_ids, valid_ids = split_corpus(ids, args.valid_frac)

    base = RunConfig(
        d_model=args.d_model, n_heads=args.n_heads, d_ff=args.d_ff, t_max=args.t_max,
        steps=args.steps, batch=args.batch, lr=args.lr,
    )
    layouts = None
    if not args.all_layouts and args.budget == 6:
        layouts = {v: PINNED_LAYOUTS[v] for v in variants if v in PINNED_LAYOUTS}
    rows = budget_sweep(
        args.budget, variants, train_ids, valid_ids, base, seeds=seeds, layouts=layouts
    )
    print(format_sweep(rows))
    if args.csv:
        os.makedirs(os.path.dirname(args.csv) or ".", exist_ok=True)
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["variant", "all_layers", "loop_count", "seed", "n_params",
                 "train_loss", "eval_loss", "eval_ppl", "fingerprint"]
            )
            for r in rows:
                w.writerow(
                    [r.variant, r.all_layers, r.loop_count, r.seed, r.n_params,
                     f"{r.train_loss:.6f}", f"{r.eval_loss:.6f}", f"{r.eval_ppl:.6f}", fingerprint]
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
