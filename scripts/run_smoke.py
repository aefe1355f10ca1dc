#!/usr/bin/env python3
"""Train a zero-token cycled model on a synthetic byte corpus, then probe it.

Writes into --out-dir:
    model.ckpt   final weights + optimizer state
    metrics.csv  training telemetry stream
    result.json  losses, runtime, eval stats, avg-loop curve over thresholds,
                 and the code-and-options stamp of scripts/artifact_stamp.py

The JSON is the machine-readable record the acceptance suite consumes; the
stdout summary plus a greedy sample are for eyeballing a run.
"""
import argparse
import json
import os
import sys
import time

import numpy as np

from artifact_stamp import stamp
from cycleformer.adaptive import ExitPolicy, generate
from cycleformer.checkpoint import save_model
from cycleformer.config import RunConfig, model_config
from cycleformer.data import ByteVocabulary, load_corpus, make_synthetic_corpus, split_corpus
from cycleformer.evaluate import evaluate
from cycleformer.train import MetricsWriter, plan_from_run, train

THRESHOLD_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--corpus", default=None, help="byte corpus; default: 1MB synthetic")
    ap.add_argument("--corpus-bytes", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--variant", default="ZTT")
    ap.add_argument("--layers", type=int, default=4)
    ap.add_argument("--loops", type=int, default=3)
    ap.add_argument("--d-model", type=int, default=128)
    ap.add_argument("--n-heads", type=int, default=4)
    ap.add_argument("--d-ff", type=int, default=512)
    ap.add_argument("--t-max", type=int, default=64)
    ap.add_argument("--batch", type=int, default=8)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--valid-frac", type=float, default=0.1)
    ap.add_argument("--eval-batches", type=int, default=100)
    ap.add_argument("--sample-tokens", type=int, default=60)
    ap.add_argument("--sample-threshold", type=float, default=0.5)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    fingerprint = stamp(args)  # before training: the code that runs, not what is there after
    os.makedirs(args.out_dir, exist_ok=True)
    if args.corpus:
        ids = load_corpus(args.corpus)
    else:
        ids = ByteVocabulary().encode(make_synthetic_corpus(args.corpus_bytes, seed=0))
    train_ids, valid_ids = split_corpus(ids, args.valid_frac)

    rc = RunConfig(
        variant=args.variant, all_layers=args.layers, loop_count=args.loops,
        d_model=args.d_model, n_heads=args.n_heads, d_ff=args.d_ff,
        t_max=args.t_max, steps=args.steps, batch=args.batch, lr=args.lr,
        seed=args.seed, early_exit_heads=True,
    )
    cfg = model_config(rc)
    plan = plan_from_run(rc)

    t0 = time.time()
    with MetricsWriter(os.path.join(args.out_dir, "metrics.csv")) as metrics:
        result = train(cfg, plan, train_ids, metrics=metrics)
    runtime = time.time() - t0
    ckpt = os.path.join(args.out_dir, "model.ckpt")
    save_model(ckpt, rc, result.params, result.optimizer)

    report = evaluate(result.params, cfg, valid_ids, batch=args.batch, max_batches=args.eval_batches)
    curve = {}
    if cfg.use_zero_token:
        for p in THRESHOLD_GRID:
            r = evaluate(
                result.params, cfg, valid_ids,
                policy=ExitPolicy(threshold=p), batch=args.batch, max_batches=args.eval_batches,
            )
            curve[str(p)] = {"avg_loop": r.adaptive.avg_loop, "loss": r.adaptive.loss,
                             "ppl": r.adaptive.ppl}

    out = {
        "seed": args.seed,
        "steps": result.steps_done,
        "runtime_s": runtime,
        "loss_initial": result.losses[0],
        "loss_final": result.losses[-1],
        "losses": result.losses,
        "valid": {
            "exits": [{"exit": e.exit_index, "loss": e.loss, "ppl": e.ppl} for e in report.exits],
            "cycles": [
                {"cycle": c.cycle, "zero_attn": c.zero_attn, "gate": c.gate}
                for c in report.cycles
            ],
        },
        "avg_loop_curve": curve,
        "checkpoint": ckpt,
        "fingerprint": fingerprint,
    }
    with open(os.path.join(args.out_dir, "result.json"), "w") as fh:
        json.dump(out, fh, indent=1)

    print(
        f"seed {args.seed}: {result.steps_done} steps in {runtime/60:.1f} min; "
        f"loss {out['loss_initial']:.3f} -> {out['loss_final']:.3f}; "
        f"valid ppl {report.ppl:.2f}"
    )
    for c in report.cycles:
        print(f"  cycle {c.cycle}: zero_attn {c.zero_attn:.4f}  gate {c.gate:.4f}")
    for p, row in curve.items():
        print(f"  threshold {p}: avg_loop {row['avg_loop']:.3f}  ppl {row['ppl']:.2f}")
    prompt = ByteVocabulary().encode(b"the ", add_bos=True)
    sample_tokens = min(args.sample_tokens, cfg.t_max - len(prompt))
    if sample_tokens > 0:
        res = generate(
            result.params, cfg, prompt,
            sample_tokens,
            policy=ExitPolicy(threshold=args.sample_threshold) if cfg.use_zero_token else None,
        )
        text = ByteVocabulary().decode(res.ids).decode("utf-8", errors="replace")
        print(f"  sample: {text!r}")
        print(f"  mean cycles/token: {np.mean(res.cycles_used):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
