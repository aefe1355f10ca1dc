#!/usr/bin/env python3
"""Fingerprint training, evaluation and decode bitwise; report training's allocator cost.

Runs the benchmark's train recipe, with the canonical config, corpus size
and BLAS thread count read from perfbench/common.py (ZTT, L=4, N=3, d=128,
h=4, d_ff=512, T=64, B=8, exit heads on; 200,000 bytes; one thread): seed
0, TrainPlan(steps=1_000_000, warmup_frac=1e-5), corpus
make_synthetic_corpus(CORPUS_BYTES, seed=0), one optimizer step at a time,
for 60 steps. It first prints the sha256 of the corpus bytes,
so a changed corpus generator is told apart from changed numerics
(expected: 40ed2badd66d8dcd6bc54cda288a946c7410c20152d23f2f61d5ef592d2e6ab4).
After step 40 it prints the sha256 over each parameter name in sorted order,
then the C-contiguous bytes of the parameter, its AdamW `m` and its `v`: a
refactor that leaves this digest unchanged kept the numerics bitwise. Over
steps 10-59 it prints minor page faults and user/sys CPU ms per step
(resource.getrusage of this process), past the first steps' one-time
allocations, and then the peak RSS. Then one extra forward, on step 60's
batch, under tracemalloc: the MB the tape holds once the forward returns,
and the traced peak through its backward. These count only Python's and
numpy's allocations, so unlike faults and RSS they do not depend on the
heap layout the process started with. It then splits the tape's MB by
record kind (embedding, attention, FFN, LM head, and the loss's records):
the arrays each rule binds, parameters left out, each array counted once.

Last it fingerprints the no-tape paths on the benchmark's fixed checkpoint
(perfbench/fixed; paths from perfbench/common.py). `eval sha256` covers the
`evaluate` reports at exit thresholds 0.5, 1.0 and none over the committed
validation tail, batch 8. Beside it, the traced peak per batch is the
tracemalloc peak through one `evaluate` call at threshold 0.5 on one batch
of 8 windows (the benchmark's eval_adaptive request), with the batch's two
halves run one after the other, so the peak does not depend on how two
threads' walks overlap. `eval adaptive 0.5` prints the full report's
adaptive NLL and avg_loop, so a moved eval hash says by how much.
`decode sha256` covers greedy `generate` at threshold 0.5 and at full depth
on the first 8 pool prompts, each filled to t_max: the ids, the cycles
used, every `decode_step`'s logits and the final `DecodeCache.depth`.
`decode max err` is the benchmark's decode oracle over all 64 pool prompts,
each followed by its reference tokens and cut to t_max: the largest
|full-depth `decode_step` logit - `forward` logit|, which must stay <= 1e-5.
When the decode hash moves, it says by how much.

    python3 scripts/train_digest.py                 # this checkout's src/
    python3 scripts/train_digest.py --src OTHER/src # another tree's package
"""
import argparse
import hashlib
import json
import os
import resource
import sys
import tracemalloc
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import common  # noqa: E402  (stdlib only)

DIGEST_AT = 40
MEASURE_FROM = 10
STEPS = 60
EVAL_THRESHOLDS = (0.5, 1.0, None)
DECODE_THRESHOLDS = (0.5, None)
DECODE_PROMPTS = 8


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(common.SRC),
                    help="directory holding the cycleformer package")
    return ap.parse_args(argv)


def digest(params, optimizer) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        for arr in (params[name].data, optimizer.m[name], optimizer.v[name]):
            h.update(arr.tobytes())  # C order whatever the layout
    return h.hexdigest()


def eval_digest(evaluate, adaptive, params, cfg, valid):
    """The sha256 over every report, and the first threshold's adaptive report."""
    h = hashlib.sha256()
    reports = []
    for threshold in EVAL_THRESHOLDS:
        reports.append(evaluate.evaluate(params, cfg, valid, adaptive.ExitPolicy(threshold), batch=8))
        h.update(repr(reports[-1]).encode())  # repr round-trips every float
    return h.hexdigest(), reports[0].adaptive


def eval_peak(model, evaluate, adaptive, params, cfg, valid) -> float:
    """MB at tracemalloc's peak through one batch-8 `evaluate` call at the
    first eval threshold, its halves run one after the other."""
    inner = model.run_halves
    model.run_halves = lambda fn, first, second: (fn(first), fn(second))
    tracemalloc.start()
    try:
        evaluate.evaluate(params, cfg, valid, adaptive.ExitPolicy(EVAL_THRESHOLDS[0]), batch=8, max_batches=1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
        model.run_halves = inner


def decode_digest(adaptive, params, cfg, valid, pool) -> str:
    h = hashlib.sha256()
    inner = adaptive.decode_step
    last_cache = None

    def step(cache, token_id, policy=None):  # generate looks decode_step up per call
        nonlocal last_cache
        last_cache = cache
        logits, used = inner(cache, token_id, policy)
        h.update(logits.tobytes())
        return logits, used

    adaptive.decode_step = step
    try:
        for threshold in DECODE_THRESHOLDS:
            for start, length in pool[:DECODE_PROMPTS]:
                res = adaptive.generate(
                    params, cfg, valid[start : start + length], cfg.t_max - length,
                    adaptive.ExitPolicy(threshold),
                )
                h.update(res.ids.tobytes())
                h.update(repr(res.cycles_used).encode())
                h.update(last_cache.depth.tobytes())
    finally:
        adaptive.decode_step = inner
    return h.hexdigest()


def decode_error(adaptive, model, params, cfg, valid, meta) -> float:
    import numpy as np

    seqs = np.stack([
        np.concatenate([valid[start : start + length], ref])[: cfg.t_max]
        for (start, length), ref in zip(meta["prompt_pool"], meta["reference_tokens"]["adaptive"])
    ])
    want = model.forward(seqs, params, cfg).logits.data
    err = 0.0
    for ids, row in zip(seqs, want):
        cache = adaptive.DecodeCache(params, cfg)
        got = np.stack([adaptive.decode_step(cache, int(tok))[0] for tok in ids])
        err = max(err, float(np.abs(got - row).max()))
    return err


# Record kind by the function whose rule it is; every other record is the loss's.
RECORD_KINDS = {"embed": "embedding", "attention_with_zero_token": "attention",
                "gated_ffn": "FFN", "_lm_logits": "LM head"}


def bound_arrays(fn):
    """The arrays `fn` binds in its closure, and those of the functions it binds."""
    import numpy as np

    for cell in fn.__closure__ or ():
        v = cell.cell_contents
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, types.FunctionType):
            yield from bound_arrays(v)


def held_by_kind(tape, params) -> dict[str, float]:
    """MB of the arrays the tape's rules bind, by record kind. A view counts
    as the array it views; parameter arrays count nowhere; an array bound
    by several records counts once, for the first."""
    import numpy as np

    seen = {id(t.data) for t in params.named().values()}
    held = dict.fromkeys([*RECORD_KINDS.values(), "loss"], 0)
    for _, _, rule in tape._records:
        kind = RECORD_KINDS.get(rule.__qualname__.split(".")[0], "loss")
        for arr in bound_arrays(rule):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            if id(arr) not in seen:
                seen.add(id(arr))
                held[kind] += arr.nbytes
    return {kind: n / 2**20 for kind, n in held.items()}


def tape_memory(ad, model, train, data, cfg, plan, params, ids, step) -> tuple[float, dict, float]:
    """MB held once one training forward has returned, that MB by record
    kind, and MB at the peak of its backward: all but the split as traced by
    tracemalloc from just before the forward. The gradients start unset, as
    `optimizer.zero_grad` leaves them."""
    for p in params.named().values():
        p.grad = None
    bp = data.BatchPlan(seq_len=cfg.t_max, batch=plan.batch, seed=plan.seed)
    inputs, targets = data.next_batch(bp, ids, step)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            res = model.forward(inputs, params, cfg, capture_exits=cfg.early_exit_heads)
            loss, _ = train.multi_exit_loss(res.exit_logits, targets)
        del res
        held = tracemalloc.get_traced_memory()[0]
        by_kind = held_by_kind(tape, params)
        ad.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held / 2**20, by_kind, peak / 2**20


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in common.BLAS_ENV:
        os.environ[var] = str(common.BLAS_THREADS)  # before numpy loads BLAS
    sys.path.insert(0, args.src)
    from cycleformer import adaptive, autodiff, checkpoint, data, evaluate, model, train
    from cycleformer.config import RunConfig, model_config
    from cycleformer.optim import AdamW

    corpus = data.make_synthetic_corpus(common.CORPUS_BYTES, seed=0)
    print(f"corpus sha256: {hashlib.sha256(corpus).hexdigest()}")
    ids = data.ByteVocabulary().encode(corpus)
    rc = RunConfig(**common.CANONICAL, seed=0)
    cfg = model_config(rc)
    plan = train.TrainPlan(
        steps=1_000_000, batch=rc.batch, lr=rc.lr, warmup_frac=1e-5,
        weight_decay=rc.weight_decay, seed=0,
    )
    params = model.init_parameters(cfg, seed=0)
    named = params.named()
    optimizer = AdamW(named, weight_decay=rc.weight_decay)
    for step in range(STEPS):
        if step == MEASURE_FROM:
            before = resource.getrusage(resource.RUSAGE_SELF)
        train.train(cfg, plan, ids, params=params, optimizer=optimizer,
                    start_step=step, stop_step=step + 1)
        if step + 1 == DIGEST_AT:
            print(f"sha256 after {DIGEST_AT} steps: {digest(named, optimizer)}")
    after = resource.getrusage(resource.RUSAGE_SELF)
    n = STEPS - MEASURE_FROM
    print(f"steps {MEASURE_FROM}-{STEPS - 1}, per step: "
          f"minor faults {(after.ru_minflt - before.ru_minflt) / n:.0f}, "
          f"user {(after.ru_utime - before.ru_utime) * 1e3 / n:.1f} ms, "
          f"sys {(after.ru_stime - before.ru_stime) * 1e3 / n:.1f} ms")
    print(f"peak RSS: {after.ru_maxrss / 1024:.1f} MB")
    held, by_kind, peak = tape_memory(autodiff, model, train, data, cfg, plan, params, ids, STEPS)
    print(f"tape after one forward: {held:.1f} MB held, {peak:.1f} MB traced peak through backward")
    print("tape held by record kind: "
          + ", ".join(f"{kind} {mb:.2f} MB" for kind, mb in by_kind.items()))

    loaded = checkpoint.load_model(str(common.CKPT_PATH))
    valid = data.ByteVocabulary().encode(common.VALID_PATH.read_bytes())
    meta = json.loads(common.META_PATH.read_text())
    params, cfg = loaded.params, loaded.config
    eval_hash, ada = eval_digest(evaluate, adaptive, params, cfg, valid)
    print(f"eval sha256: {eval_hash}  "
          f"(traced peak per batch {eval_peak(model, evaluate, adaptive, params, cfg, valid):.2f} MB)")
    print(f"eval adaptive {ada.threshold:g}: nll {ada.loss:.6f}, avg_loop {ada.avg_loop:.4f}")
    print(f"decode sha256: {decode_digest(adaptive, params, cfg, valid, meta['prompt_pool'])}")
    print(f"decode max err: {decode_error(adaptive, model, params, cfg, valid, meta):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
