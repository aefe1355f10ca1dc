"""Every metric the benchmark reports, and what each per-layer metric explains.

BENCHMARK.json lists the same names, units and directions; the benchmark's
tests check that the two agree. PER_LAYER also records, for each per-layer
metric, the end-to-end metric and workloads it should move, so a change
that claims a gain can cite the pair by name before it is measured.
"""
from __future__ import annotations

WORKLOADS = {
    "train": "optimizer steps (B=8, exit heads on) from a seeded init: the only workload that records a tape, "
    "runs autodiff.backward and AdamW.step",
    "eval_adaptive": "one evaluate(ExitPolicy(0.5), batch=8, max_batches=1) call per batch on the fixed checkpoint: "
    "no-tape batch forward plus activation capture and per-position exit choice",
}
# Decode (greedy generate at threshold 0.5 and at full depth, pool prompts of
# 4-32 bytes filled to t_max) is measured only in eval_adaptive's traced
# run: its timings swung up to 2x between runs, see worker.DecodeSample.

# name -> (unit, better, bound). A bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# Timing bounds are as wide as allowed because the machine this was tuned
# on, a 2-vCPU VM shared with other tenants, runs the same single-threaded
# loop up to 2x slower for tens of seconds at a time, on either vCPU, with
# CPU time equal to wall time. Ten-seed quartile spreads of train and eval
# timings were 0.04-0.21. nll depends on the seed's inputs and repeats
# exactly for one seed; ten seeds spread train nll (a median over 24
# steps) by 0.012 and eval nll (the whole validation text) by 0.004.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "tok_s": ("tok/s", "higher", 0.25),
    "step_ms_p50": ("ms", "lower", 0.25),
    "step_ms_p90": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "nll": ("nat/tok", "lower", 0.05),
}

_TRAIN = ("train",)
_EVAL = ("eval_adaptive",)
_TRAIN_EVAL = ("train", "eval_adaptive")
_DECODE = "decode speed; measured in eval_adaptive's traced run only"

AUTODIFF_OPS = ("matmul", "gelu", "layer_norm", "softmax", "concat", "expand", "embedding", "cross_entropy")

# name -> (unit, better, end-to-end metric it should move, workloads).
# Times are per request (one train step or one eval batch) unless the name
# says otherwise; decode metrics come from a fixed 1024-token decode sample
# (16 prompts, seeded order), so its counts repeat exactly for one seed.
PER_LAYER = {
    "data.next_batch_ms": ("ms", "lower", "step_ms_p50", _TRAIN),
    "data.make_synthetic_corpus_ms": ("ms", "lower", "setup_s", _TRAIN),
    "autodiff.tape_records": ("count", "lower", "step_ms_p50 and peak_rss_mb", _TRAIN),
    "autodiff.backward_ms": ("ms", "lower", "tok_s", _TRAIN),
    **{
        f"autodiff.{op}.{kind}": (unit, "lower", "tok_s", _TRAIN_EVAL)
        for op in AUTODIFF_OPS + ("other",)
        for kind, unit in (("fwd_ms", "ms"), ("calls", "count"))
    },
    "model.forward_ms": ("ms", "lower", "tok_s", _TRAIN_EVAL),
    "model.attention_ms": ("ms", "lower", "tok_s", _TRAIN_EVAL),
    "model.ffn_ms": ("ms", "lower", "tok_s", _TRAIN_EVAL),
    "model.forward_ms.V": ("ms", "lower", "step_ms_p50", _TRAIN),
    "model.forward_ms.BC": ("ms", "lower", "step_ms_p50", _TRAIN),
    "model.forward_ms.HTC": ("ms", "lower", "step_ms_p50", _TRAIN),
    "model.forward_ms.ZTT": ("ms", "lower", "step_ms_p50", _TRAIN),
    "train.multi_exit_loss_ms": ("ms", "lower", "tok_s", _TRAIN),
    "optim.step_ms": ("ms", "lower", "step_ms_p50", _TRAIN),
    "optim.zero_grad_ms": ("ms", "lower", "step_ms_p50", _TRAIN),
    "evaluate.score_ms": ("ms", "lower", "step_ms_p50", _EVAL),
    "evaluate.avg_loop": ("cycles/tok", "lower", "none: identifies the workload", _EVAL),
    "adaptive.decode_step_ms.prompt": ("ms", "lower", _DECODE, _EVAL),
    "adaptive.decode_step_ms.gen": ("ms", "lower", _DECODE, _EVAL),
    "adaptive.cycles_per_token": ("cycles/tok", "lower", _DECODE, _EVAL),
    "adaptive.exit_hist.c1": ("count", "higher", _DECODE, _EVAL),
    "adaptive.exit_hist.c2": ("count", "higher", _DECODE, _EVAL),
    "adaptive.exit_hist.c3": ("count", "lower", _DECODE, _EVAL),
    "adaptive.deepen_cycles": ("count", "lower", _DECODE, _EVAL),
    "adaptive.useful_cycle_ratio": ("ratio", "higher", _DECODE, _EVAL),
    "adaptive.token_match": ("ratio", "higher", "none: agreement with the recorded reference tokens", _EVAL),
    "adaptive.speedup_vs_full": ("ratio", "higher", _DECODE + "; full-depth over adaptive time, same prompts", _EVAL),
    "checkpoint.load_model_ms": ("ms", "lower", "setup_s", _EVAL),
    "trace.overhead_pct": ("%", "lower", "none: traced vs untraced tok_s in one run", _TRAIN_EVAL),
}
