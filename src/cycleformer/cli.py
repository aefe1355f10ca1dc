"""Command line front end: train / eval / generate / sweep / retrofit.

Exit codes: 0 success; 2 bad usage, config or data, including a missing file
and any other file the command cannot open or write; 3 training diverged;
4 unreadable or incompatible checkpoint.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adaptive import ExitPolicy, generate
from .checkpoint import load_model, save_model
from .config import RunConfig, load_run_config, model_config, parse_value
from .data import ByteVocabulary, load_corpus, split_corpus
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    ShapeError,
    TrainingDiverged,
    UsageError,
)
from .evaluate import budget_sweep, evaluate, format_sweep
from .model import init_from_vanilla, param_count
from .train import MetricsWriter, plan_from_run, train

EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_CHECKPOINT = 4

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _manifest() -> dict:
    """Where a command ran: Python, numpy and its BLAS build, the BLAS thread
    variables (None when unset), the CPUs this process may use, and the
    sha256 over the package's *.py files, each name and then its contents,
    in name order."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "package_sha256": h.hexdigest(),
    }


def _policy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threshold",
        default=None,
        help="zero-attention exit threshold, or 'none' for fixed full depth; "
        "omitted: the checkpoint's exit_threshold",
    )


def _policy(args, rc: RunConfig) -> ExitPolicy:
    """`--threshold` if given (None when omitted), else the checkpoint's exit_threshold."""
    threshold = rc.exit_threshold
    if args.threshold is not None:
        threshold = parse_value("exit_threshold", args.threshold, label="--threshold")
    return ExitPolicy(threshold=threshold)


def _seed(text: str) -> int:
    """argparse type for --seed: numpy's generators take only non-negative integers."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _seeds(text: str) -> tuple[int, ...]:
    """argparse type for --seeds: one or more comma-separated `_seed` values."""
    seeds = tuple(_seed(s) for s in text.split(",") if s.strip())
    if not seeds:
        raise argparse.ArgumentTypeError(f"needs at least one seed, got {text!r}")
    return seeds


def _exit_histogram(counts) -> str:
    return "exits by cycle: " + "  ".join(f"{c}:{n}" for c, n in enumerate(counts, 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cycleformer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True, help="key=value run config file")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--metrics", default=None, help="CSV metrics path")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--data", default=None, help="corpus file (overrides corpus_path)")

    p = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--max-batches", type=int, default=None)
    p.add_argument("--per-exit", action="store_true", help="print every exit, not just the last")
    _policy_args(p)

    p = sub.add_parser("generate", help="sample bytes from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--prompt", default="")
    p.add_argument("--max-tokens", type=int, default=64)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    _policy_args(p)

    p = sub.add_parser("sweep", help="train every layout that fills a depth budget")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--variants", default="V,BC,HTC,ZTT")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="base run config for width and steps")
    p.add_argument("--seeds", type=_seeds, default="0", help="comma-separated seeds")
    p.add_argument("--valid-frac", type=float, default=0.1)

    p = sub.add_parser("retrofit", help="warm-start a cycled model from a vanilla checkpoint")
    p.add_argument("--ckpt", required=True, help="source checkpoint (variant V)")
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=("HTC", "ZTT"), default="ZTT")
    p.add_argument("--loop-count", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    return parser


def _check_out(path: str) -> None:
    """Reject an output path that cannot be written before any work is done."""
    if os.path.isdir(path):
        raise UsageError(f"--out {path} is a directory; give a checkpoint file path")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"--out {path}: {parent} is not an existing directory")


def cmd_train(args) -> int:
    _check_out(args.out)
    rc = load_run_config(args.config)
    if args.data is not None:
        rc = replace(rc, corpus_path=args.data)
    if rc.corpus_path is None:
        raise ConfigError("corpus_path is not set; add corpus_path=... or pass --data")
    cfg = model_config(rc)
    # Before training: eval and generate would reject the checkpoint's policy.
    cfg.check_exit_threshold(rc.exit_threshold)
    plan = plan_from_run(rc)
    ids = load_corpus(rc.corpus_path)
    params = None
    optimizer = None
    start = 0
    if args.resume:
        loaded = load_model(args.resume)
        if loaded.config != cfg:
            raise ConfigError(
                f"checkpoint {args.resume} was built for a different model shape"
            )
        params, optimizer, start = loaded.params, loaded.make_optimizer(), loaded.step
        if start >= plan.steps:
            print(f"nothing to do: checkpoint is at step {start} of {plan.steps}")
            return 0
    metrics = MetricsWriter(args.metrics, append=bool(args.resume)) if args.metrics else None
    try:
        result = train(
            cfg, plan, ids, params=params, optimizer=optimizer, start_step=start, metrics=metrics
        )
    finally:
        if metrics is not None:
            metrics.close()
    save_model(args.out, rc, result.params, result.optimizer)
    total = param_count(cfg)["total"]
    print(
        f"trained {rc.variant} ({total} params) for {result.steps_done - start} steps; "
        f"final loss {result.losses[-1]:.4f}; checkpoint -> {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    loaded = load_model(args.ckpt)
    ids = load_corpus(args.data)
    report = evaluate(
        loaded.params, loaded.config, ids,
        policy=_policy(args, loaded.rc), batch=args.batch, max_batches=args.max_batches,
    )
    shown = report.exits if args.per_exit else report.exits[-1:]
    for e in shown:
        print(f"exit {e.exit_index}: loss {e.loss:.4f}  ppl {e.ppl:.2f}")
    if report.adaptive is not None:
        a = report.adaptive
        print(
            f"adaptive (threshold {a.threshold:g}, mean): "
            f"loss {a.loss:.4f}  ppl {a.ppl:.2f}  avg_loop {a.avg_loop:.3f}"
        )
        print(_exit_histogram(a.exit_counts))
    for c in report.cycles:
        z = "" if c.zero_attn is None else f"  zero_attn {c.zero_attn:.4f}"
        g = "" if c.gate is None else f"  gate {c.gate:.4f}"
        print(f"cycle {c.cycle}:{z}{g}")
    print(f"tokens {report.n_tokens}  batches {report.n_batches}")
    print("manifest " + json.dumps(_manifest(), sort_keys=True))
    return 0


def cmd_generate(args) -> int:
    loaded = load_model(args.ckpt)
    vocab = ByteVocabulary()
    prompt = vocab.encode(args.prompt.encode("utf-8"), add_bos=True)
    res = generate(
        loaded.params, loaded.config, prompt, args.max_tokens,
        policy=_policy(args, loaded.rc), temperature=args.temperature, seed=args.seed,
    )
    sys.stdout.write(vocab.decode(res.ids).decode("utf-8", errors="replace"))
    sys.stdout.write("\n")
    print("cycles: " + " ".join(str(c) for c in res.cycles_used), file=sys.stderr)
    counts = np.bincount(res.cycles_used, minlength=loaded.config.n_exits + 1)[1:]
    print(_exit_histogram(counts), file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    base = load_run_config(args.config) if args.config else RunConfig()
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("--variants is empty")
    ids = load_corpus(args.data)
    train_ids, valid_ids = split_corpus(ids, args.valid_frac)
    rows = budget_sweep(args.budget, variants, train_ids, valid_ids, base, seeds=args.seeds)
    print(format_sweep(rows))
    return 0


def cmd_retrofit(args) -> int:
    _check_out(args.out)
    loaded = load_model(args.ckpt)
    target_rc = replace(
        loaded.rc,
        variant=args.variant,
        loop_count=args.loop_count,
        use_gate=None,
        use_zero_token=None,
        share_middle=True,
    )
    target_cfg = model_config(target_rc)
    target_cfg.check_exit_threshold(target_rc.exit_threshold)
    params = init_from_vanilla(loaded.params, target_cfg, seed=args.seed)
    save_model(args.out, target_rc, params)
    print(
        f"retrofitted {args.variant} x{args.loop_count} "
        f"({param_count(target_cfg)['total']} params) -> {args.out}"
    )
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "generate": cmd_generate,
    "sweep": cmd_sweep,
    "retrofit": cmd_retrofit,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TrainingDiverged as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except CheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (ConfigError, DataError, UsageError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        where = f"{e.filename}: " if e.filename else ""
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
