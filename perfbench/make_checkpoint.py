#!/usr/bin/env python3
"""Train the benchmark's fixed checkpoint and record its reference outputs.

    python3 perfbench/make_checkpoint.py

Trains the canonical ZTT config with exit heads for CKPT_STEPS steps on the
synthetic corpus, saves the weights without optimizer state and the
corpus's validation tail (the eval and decode inputs), then writes a JSON
record next to them: sha256 of both files, config, the code fingerprint
the weights were trained with, the fixed-depth and adaptive validation NLL,
the exit histogram at THRESHOLD, the decode prompt pool, and the greedy
reference tokens for every pool prompt at full depth and at THRESHOLD.

The adaptive workloads read this checkpoint instead of training one, so a
numerics change in the package cannot change their exit depths. Rerun this
script only to replace the checkpoint on purpose.
"""
from __future__ import annotations

import json
import os
import sys
import time

import common

# Same BLAS thread count as the benchmark, so the reference tokens are the
# ones the benchmark computes.
os.environ.update({k: str(common.BLAS_THREADS) for k in common.BLAS_ENV})
sys.path.insert(0, str(common.SRC))

import numpy as np  # noqa: E402

from cycleformer.adaptive import ExitPolicy, generate  # noqa: E402
from cycleformer.checkpoint import load_model, save_model  # noqa: E402
from cycleformer.config import RunConfig, model_config, serialize_run_config  # noqa: E402
from cycleformer.data import ByteVocabulary, make_synthetic_corpus, split_corpus  # noqa: E402
from cycleformer.evaluate import evaluate  # noqa: E402
from cycleformer.train import plan_from_run, train  # noqa: E402

CKPT_STEPS = 1000
CKPT_SEED = 0


def corpus_split():
    ids = ByteVocabulary().encode(make_synthetic_corpus(common.CORPUS_BYTES, seed=common.CORPUS_SEED))
    return split_corpus(ids, common.VALID_FRAC)


def prompt_pool(n_valid: int) -> list[list[int]]:
    """[start, length] of each decode prompt inside the validation text."""
    rng = np.random.default_rng(common.POOL_SEED)
    lo, hi = common.PROMPT_LEN
    pool = []
    for _ in range(common.PROMPT_POOL):
        length = int(rng.integers(lo, hi + 1))
        pool.append([int(rng.integers(0, n_valid - length)), length])
    return pool


def train_checkpoint(train_ids) -> dict:
    rc = RunConfig(**common.CANONICAL, steps=CKPT_STEPS, seed=CKPT_SEED)
    t0 = time.perf_counter()
    result = train(model_config(rc), plan_from_run(rc), train_ids)
    minutes = (time.perf_counter() - t0) / 60
    save_model(str(common.CKPT_PATH), rc, result.params)
    losses = result.losses
    print(f"trained {len(losses)} steps in {minutes:.1f} min: loss {losses[0]:.3f} -> {losses[-1]:.3f}")
    return {"loss_first": losses[0], "loss_last": losses[-1], "train_minutes": round(minutes, 2)}


def references(valid_ids) -> dict:
    model = load_model(str(common.CKPT_PATH))
    params, cfg = model.params, model.config
    fixed = evaluate(params, cfg, valid_ids, batch=8)
    ada = evaluate(params, cfg, valid_ids, ExitPolicy(common.THRESHOLD), batch=8)
    pool = prompt_pool(len(valid_ids))
    refs = {"full": [], "adaptive": []}
    hist = [0] * cfg.loop_count
    for i, (start, length) in enumerate(pool):
        prompt = valid_ids[start : start + length]
        n_new = cfg.t_max - length
        refs["full"].append(generate(params, cfg, prompt, n_new).new_ids.tolist())
        res = generate(params, cfg, prompt, n_new, ExitPolicy(common.THRESHOLD))
        refs["adaptive"].append(res.new_ids.tolist())
        if i < 1024 // cfg.t_max:
            for c in res.cycles_used:
                hist[c - 1] += 1
    return {
        "valid_nll_fixed": fixed.loss,
        "valid_nll_adaptive": ada.adaptive.loss,
        "valid_avg_loop_adaptive": ada.adaptive.avg_loop,
        "exit_hist_per_1024_tokens": {f"c{c + 1}": n for c, n in enumerate(hist)},
        "prompt_pool": pool,
        "reference_tokens": refs,
        "config_text": serialize_run_config(model.rc),
    }


def main() -> int:
    train_ids, valid_ids = corpus_split()
    common.VALID_PATH.write_bytes(valid_ids.astype(np.uint8).tobytes())
    meta = {
        "file": common.CKPT_PATH.name,
        "code_fingerprint": common.code_fingerprint(),
        "corpus": {"bytes": common.CORPUS_BYTES, "seed": common.CORPUS_SEED, "valid_frac": common.VALID_FRAC},
        "valid_file": common.VALID_PATH.name,
        "valid_sha256": common.sha256_file(common.VALID_PATH),
        "threshold": common.THRESHOLD,
    }
    meta.update(train_checkpoint(train_ids))
    meta["sha256"] = common.sha256_file(common.CKPT_PATH)
    meta.update(references(valid_ids))
    common.META_PATH.write_text(json.dumps(meta, indent=1) + "\n")
    print(
        f"valid nll fixed {meta['valid_nll_fixed']:.4f}, adaptive {meta['valid_nll_adaptive']:.4f}; "
        f"exit histogram {meta['exit_hist_per_1024_tokens']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
