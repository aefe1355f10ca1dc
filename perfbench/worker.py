#!/usr/bin/env python3
"""One benchmark workload in one process: set up, run a closed loop for a
fixed time, check the outputs, print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is `probe` (set up, then stop), `measure` (one untraced timed phase)
or `trace` (each request twice, untraced then traced). run.py starts this
script with the BLAS thread count fixed in its environment; the last line
of standard output is the result.

Every workload is a closed loop with one caller: each request (one train
step or one eval batch) is issued when the previous one returns. Requests
follow a list made from SEED, and each timed phase starts from its head,
so the first requests of a phase, and the counts taken from them, are the
same on every run with that seed.
"""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter

import common

sys.path.insert(0, str(common.SRC))

import numpy as np  # noqa: E402

import cycleformer.adaptive as adaptive  # noqa: E402
import cycleformer.checkpoint as checkpoint  # noqa: E402
import cycleformer.data as data  # noqa: E402
import cycleformer.evaluate as evaluate  # noqa: E402
import cycleformer.model as model  # noqa: E402
import cycleformer.train as train  # noqa: E402
from cycleformer.adaptive import ExitPolicy  # noqa: E402
from cycleformer.autodiff import Tape  # noqa: E402
from cycleformer.config import RunConfig, model_config  # noqa: E402
from cycleformer.errors import TrainingDiverged  # noqa: E402
from cycleformer.optim import AdamW  # noqa: E402

import tracing  # noqa: E402
from metrics import AUTODIFF_OPS  # noqa: E402

# The train workload's LR schedule: 10 warm-up steps, then a cosine so long
# that the rate stays near its peak however many steps a run completes.
LR_HORIZON = 1_000_000
LR_WARMUP_FRAC = 1e-5
# Train nll is the median loss of these timed requests (steps 25-48): past
# the warm-up, so an optimizer that does not update shows as a loss still
# near its initial value. A median, because at the held peak rate about one
# step in 30 jumps to a loss of 4-9 and the next step falls back; in a mean
# of 8 steps that one step moved nll by up to 20% between seeds. Every
# measured run issues at least this many requests.
TRAIN_NLL_REQUESTS = range(24, 48)
DECODE_ORACLE_TOL = 1e-5
# The decode sample is 16 prompts filled to t_max=64 tokens: 1024 tokens.
DECODE_PROMPTS = 16
VARIANT_REPS = 3


@dataclass
class Outcome:
    """One request: tokens processed, whether its outputs passed the checks,
    its duration, and its NLL sum and count."""

    tokens: int
    ok: bool
    ms: float
    nll_sum: float
    nll_n: int
    info: dict = field(default_factory=dict)


def fixed_corpus_valid() -> np.ndarray:
    return data.ByteVocabulary().encode(common.VALID_PATH.read_bytes())


class TrainWorkload:
    """Optimizer steps from a seeded init on a seeded synthetic corpus."""

    pass_len = 1
    nll_requests = TRAIN_NLL_REQUESTS

    def __init__(self, seed: int):
        text = data.make_synthetic_corpus(common.CORPUS_BYTES, seed=seed)
        self.ids = data.ByteVocabulary().encode(text)
        rc = RunConfig(**common.CANONICAL, seed=seed)
        self.cfg = model_config(rc)
        self.plan = train.TrainPlan(
            steps=LR_HORIZON, batch=rc.batch, lr=rc.lr, warmup_frac=LR_WARMUP_FRAC,
            weight_decay=rc.weight_decay, seed=seed,
        )
        self.params = model.init_parameters(self.cfg, seed=seed)
        self.optimizer = AdamW(self.params.named(), weight_decay=rc.weight_decay)
        self.step = 0
        self.request(0)  # warm-up: step 0; the timed steps continue from 1

    def request(self, i: int):
        step = self.step
        self.step += 1
        try:
            res = train.train(
                self.cfg, self.plan, self.ids, params=self.params, optimizer=self.optimizer,
                start_step=step, stop_step=step + 1,
            )
        except TrainingDiverged as exc:
            return exc.loss
        return res.losses[0]

    def outcome(self, loss: float, ms: float) -> Outcome:
        return Outcome(self.plan.batch * self.cfg.t_max, math.isfinite(loss), ms, loss, 1)

    @staticmethod
    def nll(head: list[Outcome]) -> tuple[float, int]:
        return float(np.median([o.nll_sum for o in head])), len(head)

    def checks(self) -> list[tuple[str, bool]]:
        return []

    def variant_forward_ms(self) -> dict[str, float]:
        """Median ms of one taped training forward (exit heads on) per variant
        of the matched effective-depth-8 set."""
        inputs, _ = data.next_batch(data.BatchPlan(self.cfg.t_max, self.plan.batch, seed=0), self.ids, 0)
        out = {}
        for variant, layers, loops in (("V", 8, 1), ("BC", 4, 2), ("HTC", 4, 3), ("ZTT", 4, 3)):
            rc = RunConfig(**{**common.CANONICAL, "variant": variant, "all_layers": layers, "loop_count": loops})
            cfg = model_config(rc)
            params = model.init_parameters(cfg, seed=0)
            times = []
            for _ in range(VARIANT_REPS + 1):
                t0 = perf_counter()
                with Tape():
                    model.forward(inputs, params, cfg, capture_exits=True)
                times.append((perf_counter() - t0) * 1e3)
            out[variant] = float(np.median(times[1:]))
        return out


class EvalWorkload:
    """Adaptive evaluation of one 8-window batch per request, fixed checkpoint.

    The batches tile the validation text from a seeded shift, in seeded
    order, so one pass scores nearly every byte of it; `nll` covers one pass.
    Over ten seeds, nll's quartile spread was 0.04 when a pass scored 16
    seeded batches (two fifths of the text) and is 0.004 over the whole text.
    """

    def __init__(self, seed: int):
        self.valid = fixed_corpus_valid()
        loaded = checkpoint.load_model(str(common.CKPT_PATH))
        self.params, self.cfg = loaded.params, loaded.config
        self.span = common.CANONICAL["batch"] * self.cfg.t_max + 1
        rng = np.random.default_rng(seed)
        stride = self.span - 1  # each target byte is scored by one batch
        n = (len(self.valid) - 1) // stride
        starts = rng.integers(0, len(self.valid) - n * stride) + np.arange(n) * stride
        self.offsets = rng.permutation(starts)
        self.pass_len = n
        self.nll_requests = range(n)
        self.seed = seed
        self.request(0)  # warm-up

    def _evaluate(self, i: int, threshold: float):
        off = int(self.offsets[i % len(self.offsets)])
        return evaluate.evaluate(
            self.params, self.cfg, self.valid[off : off + self.span], ExitPolicy(threshold),
            batch=common.CANONICAL["batch"], max_batches=1,
        )

    def request(self, i: int):
        return self._evaluate(i, common.THRESHOLD)

    def outcome(self, report, ms: float) -> Outcome:
        nll = report.adaptive.loss
        ok = math.isfinite(nll) and report.n_tokens > 0
        return Outcome(report.n_tokens, ok, ms, nll * report.n_tokens, report.n_tokens,
                       {"avg_loop": report.adaptive.avg_loop})

    @staticmethod
    def nll(head: list[Outcome]) -> tuple[float, int]:
        n = sum(o.nll_n for o in head)
        return sum(o.nll_sum for o in head) / max(n, 1), n

    def checks(self) -> list[tuple[str, bool]]:
        report = self._evaluate(0, 1.0)
        same = bool(report.adaptive.loss == report.loss)
        return [(f"threshold 1.0 NLL {report.adaptive.loss!r} == fixed-depth NLL {report.loss!r}", same),
                *self.decode_checks()]

    def _stream_logits(self, ids, policy: ExitPolicy) -> tuple[np.ndarray, list[int]]:
        cache = adaptive.DecodeCache(self.params, self.cfg)
        out = [adaptive.decode_step(cache, int(tok), policy) for tok in ids]
        return np.stack([o[0] for o in out]), [o[1] for o in out]

    def decode_checks(self) -> list[tuple[str, bool]]:
        """On the first decode-sample prompt followed by its reference tokens:
        incremental full-depth logits against model.forward, and threshold
        1.0 decode against full-depth decode."""
        prompts = DecodePrompts(self.valid, self.seed)
        k = int(prompts.order[0])
        ids = np.concatenate([prompts.prompt(k), np.asarray(prompts.reference[k], dtype=np.int64)])
        ids = ids[: self.cfg.t_max]
        full, _ = self._stream_logits(ids, ExitPolicy())
        want = model.forward(ids, self.params, self.cfg).logits.data
        err = float(np.abs(full - want).max())
        capped, used = self._stream_logits(ids, ExitPolicy(1.0))
        same = bool(np.array_equal(full, capped)) and used == [self.cfg.loop_count] * len(ids)
        return [
            (f"incremental vs model.forward logits: max err {err:.2e} <= {DECODE_ORACLE_TOL}",
             err <= DECODE_ORACLE_TOL),
            ("threshold 1.0 decode equals full-depth decode", same),
        ]


class DecodePrompts:
    """The decode sample's inputs: DECODE_PROMPTS pool prompts of the fixed
    checkpoint's record in seeded order, with their reference tokens."""

    def __init__(self, valid: np.ndarray, seed: int):
        meta = json.loads(common.META_PATH.read_text())
        self.valid = valid
        self.pool = meta["prompt_pool"]
        self.reference = meta["reference_tokens"]["adaptive"]
        self.order = np.random.default_rng(seed).permutation(len(self.pool))[:DECODE_PROMPTS]

    def prompt(self, k: int) -> np.ndarray:
        start, length = self.pool[k]
        return self.valid[start : start + length]


class DecodeProbe:
    """Stands in for cycleformer.adaptive.decode_step where generate looks it
    up, during a traced generate. Each call gets a span and is recorded with
    the position-cycles that lazy deepening reran in it, counted as the rise
    of DecodeCache.depth over the earlier positions across the call."""

    def __init__(self, tracer: tracing.Tracer, prompt_len: int):
        self.inner = adaptive.decode_step
        self.tracer = tracer
        self.prompt_len = prompt_len
        self.calls: list[tuple] = []

    def __call__(self, cache, token_id, policy=None):
        t = cache.n_pos
        before = int(cache.depth[:t].sum())
        phase = "prompt" if len(self.calls) < self.prompt_len else "gen"
        idx = self.tracer.open(f"adaptive.decode_step.{phase}")
        logits, used = self.inner(cache, token_id, policy)
        self.tracer.close(idx)
        self.calls.append((logits, used, int(cache.depth[:t].sum()) - before))
        return logits, used


class DecodeSample:
    """Greedy generate on the decode prompts, each filled to t_max, at
    threshold THRESHOLD and at full depth.

    Decode is measured only in eval_adaptive's traced run, not as a workload
    of its own: on the shared machine the benchmark was tuned on, decode
    timings (Python-bound, single token) swung up to 2x between runs while
    train and eval moved 10-15%, so no bound could hold them.
    """

    def __init__(self, ev: EvalWorkload):
        self.ev = ev
        self.prompts = DecodePrompts(ev.valid, ev.seed)

    def generate(self, prompt: np.ndarray, policy: ExitPolicy) -> tuple[float, np.ndarray]:
        t0 = perf_counter()
        res = adaptive.generate(self.ev.params, self.ev.cfg, prompt, self.ev.cfg.t_max - len(prompt), policy)
        return (perf_counter() - t0) * 1e3, res.new_ids

    def traced_generate(self, prompt: np.ndarray, tracer: tracing.Tracer) -> tuple[np.ndarray, list[tuple]]:
        probe = DecodeProbe(tracer, len(prompt))
        tracer.install()
        tracer.request = -2
        adaptive.decode_step = probe
        try:
            _, new_ids = self.generate(prompt, ExitPolicy(common.THRESHOLD))
        finally:
            adaptive.decode_step = probe.inner
            tracer.request = -1
            tracer.uninstall()
        return new_ids, probe.calls

    def run(self, tracer: tracing.Tracer) -> dict:
        """Per prompt: full depth and adaptive untraced (their time ratio is
        adaptive.speedup_vs_full), then adaptive traced for the counts."""
        full_ms = ada_ms = 0.0
        used: list[int] = []
        deepened = match = ref_tokens = 0
        failed = 0
        for k in self.prompts.order:
            prompt = self.prompts.prompt(k)
            full_ms += self.generate(prompt, ExitPolicy())[0]
            ada_ms += self.generate(prompt, ExitPolicy(common.THRESHOLD))[0]
            new_ids, calls = self.traced_generate(prompt, tracer)
            used += [c[1] for c in calls]
            deepened += sum(c[2] for c in calls)
            ref = self.prompts.reference[k]
            match += sum(int(a == b) for a, b in zip(new_ids.tolist(), ref))
            ref_tokens += len(ref)
            ok = len(calls) == self.ev.cfg.t_max and all(np.isfinite(c[0]).all() for c in calls)
            failed += not ok
        steps = [s for s in tracer.spans if s[tracing.NAME].startswith("adaptive.decode_step.")]

        def step_ms(phase: str) -> float:
            return float(np.median([tracing.duration_ms(s) for s in steps if s[tracing.NAME].endswith(phase)]))

        out = {
            "adaptive.decode_step_ms.prompt": step_ms("prompt"),
            "adaptive.decode_step_ms.gen": step_ms("gen"),
            "adaptive.cycles_per_token": sum(used) / len(used),
            "adaptive.deepen_cycles": deepened,
            "adaptive.useful_cycle_ratio": sum(used) / (sum(used) + deepened),
            "adaptive.token_match": match / ref_tokens,
            "adaptive.speedup_vs_full": full_ms / ada_ms,
        }
        for c in (1, 2, 3):
            out[f"adaptive.exit_hist.c{c}"] = sum(1 for u in used if u == c)
        return {"metrics": out, "attempted": len(self.prompts.order), "failed": failed}


def make_workload(name: str, seed: int):
    if name == "train":
        return TrainWorkload(seed)
    if name == "eval_adaptive":
        return EvalWorkload(seed)
    raise SystemExit(f"unknown workload {name!r}")


def timed_request(wl, i: int, tracer: tracing.Tracer | None = None) -> tuple[float, Outcome]:
    if tracer is not None:
        tracer.install()
        tracer.request = i
        idx = tracer.open("bench.request")
    t0 = perf_counter()
    raw = wl.request(i)
    ms = (perf_counter() - t0) * 1e3
    if tracer is not None:
        tracer.close(idx)
        tracer.request = -1
        tracer.uninstall()
    return ms, wl.outcome(raw, ms)


def run_phase(wl, seconds: float) -> list[tuple[float, Outcome]]:
    """Issue requests 0, 1, ... until `seconds` have passed and every
    request `nll` covers is done."""
    done = []
    end = perf_counter() + seconds
    i = 0
    while True:
        done.append(timed_request(wl, i))
        i += 1
        if perf_counter() >= end and i >= wl.nll_requests.stop:
            return done


def run_paired(wl, seconds: float, tracer: tracing.Tracer) -> tuple[list, list]:
    """Issue each request twice, untraced then traced, until `seconds` have
    passed. The machine's speed drifts over seconds; pairing keeps that
    drift out of the tracing overhead."""
    untraced, traced = [], []
    end = perf_counter() + seconds
    i = 0
    while True:
        untraced.append(timed_request(wl, i))
        traced.append(timed_request(wl, i, tracer))
        i += 1
        if perf_counter() >= end:
            return untraced, traced


def whole_passes(wl, done) -> list[tuple[float, Outcome]]:
    """The requests of whole passes over the request list (all of them if
    there is not one whole pass), so every run weighs the same inputs
    equally."""
    return done[: len(done) // wl.pass_len * wl.pass_len or len(done)]


def tok_s(timed) -> float:
    return sum(o.tokens for _, o in timed) / sum(ms for ms, _ in timed) * 1e3


def end_to_end(wl, done) -> dict:
    """Every end-to-end metric except setup_s, as (value, samples). Timings
    cover whole passes over the request list."""
    timed = whole_passes(wl, done)
    n = len(timed)
    steps = np.array([ms for ms, _ in timed])
    return {
        "tok_s": (tok_s(timed), n),
        "step_ms_p50": (float(np.percentile(steps, 50)), n),
        "step_ms_p90": (float(np.percentile(steps, 90)), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "nll": wl.nll([done[r][1] for r in wl.nll_requests]),
    }


def per_layer(workload: str, wl, tracer: tracing.Tracer, done, untraced_tok_s: float, decode: dict) -> dict:
    """Every per-layer metric; 0 where the workload never enters the layer."""
    n = len(done)
    spans = tracer.spans
    ms, calls = tracing.per_request(spans, n)
    own = tracing.self_times(spans)
    # Forward primitives only: autodiff.backward replays the tape's closures
    # and is reported on its own as autodiff.backward_ms.
    bucket = {f"autodiff.{op}": op for op in AUTODIFF_OPS}
    bucket.update({f"autodiff.{op}": "other" for op in tracing.OTHER_OPS})
    op_self: dict[str, list[float]] = {}
    for s, t in zip(spans, own):
        op = bucket.get(s[tracing.NAME])
        if op is not None and 0 <= s[tracing.REQUEST] < n:
            op_self.setdefault(op, [0.0] * n)[s[tracing.REQUEST]] += t
    other_calls = [sum(calls[f"autodiff.{op}"][r] for op in tracing.OTHER_OPS) for r in range(n)]

    def med(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    def setup_ms(name: str) -> float:
        return sum(tracing.duration_ms(s) for s in spans if s[tracing.NAME] == name and s[tracing.REQUEST] == -1)

    is_eval = workload == "eval_adaptive"
    out = {
        "data.next_batch_ms": med(ms["data.next_batch"]),
        "data.make_synthetic_corpus_ms": setup_ms("data.make_synthetic_corpus"),
        "autodiff.tape_records": med([tracer.tape_records.get(r, 0) for r in range(n)]),
        "autodiff.backward_ms": med(ms["autodiff.backward"]),
        "model.forward_ms": med(ms["model.forward"]),
        "model.attention_ms": med(ms["model.attention"]),
        "model.ffn_ms": med(ms["model.ffn"]),
        "train.multi_exit_loss_ms": med(ms["train.multi_exit_loss"]),
        "optim.step_ms": med(ms["optim.step"]),
        "optim.zero_grad_ms": med(ms["optim.zero_grad"]),
        "evaluate.score_ms": med([e - f for e, f in zip(ms["evaluate.evaluate"], ms["model.forward"])])
        if is_eval else 0.0,
        "evaluate.avg_loop": med([o.info["avg_loop"] for _, o in done[: wl.pass_len]]) if is_eval else 0.0,
        "checkpoint.load_model_ms": setup_ms("checkpoint.load_model"),
    }
    for op in AUTODIFF_OPS + ("other",):
        out[f"autodiff.{op}.fwd_ms"] = med(op_self.get(op, [0.0] * n))
        out[f"autodiff.{op}.calls"] = med(other_calls if op == "other" else calls[f"autodiff.{op}"])
    variants = wl.variant_forward_ms() if workload == "train" else {}
    for v in ("V", "BC", "HTC", "ZTT"):
        out[f"model.forward_ms.{v}"] = variants.get(v, 0.0)
    for name in ("decode_step_ms.prompt", "decode_step_ms.gen", "cycles_per_token", "exit_hist.c1",
                 "exit_hist.c2", "exit_hist.c3", "deepen_cycles", "useful_cycle_ratio", "token_match",
                 "speedup_vs_full"):
        out[f"adaptive.{name}"] = decode.get(f"adaptive.{name}", 0.0)
    traced_tok_s = tok_s(whole_passes(wl, done))
    out["trace.overhead_pct"] = 100.0 * (untraced_tok_s - traced_tok_s) / untraced_tok_s
    return out


def manifest(workload: str, seed: int, seconds: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in common.BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "code_fingerprint": common.code_fingerprint(),
        "checkpoint_sha256": common.sha256_file(common.CKPT_PATH),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    tracer = tracing.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    wl = make_workload(workload, seed)
    ready_at = perf_counter()
    result: dict = {"ready_at": ready_at}
    if mode == "probe":
        print(json.dumps(result))
        return 0
    decode = {"metrics": {}, "attempted": 0, "failed": 0}
    if tracer is None:
        done = run_phase(wl, seconds)
        issued = [o for _, o in done]
    else:
        tracer.uninstall()
        untraced, done = run_paired(wl, seconds, tracer)
        untraced_tok_s = tok_s(whole_passes(wl, untraced))
        issued = [o for _, o in done + untraced]
        if isinstance(wl, EvalWorkload):
            decode = DecodeSample(wl).run(tracer)
    checks = wl.checks()
    result.update(
        attempted=len(issued) + len(checks) + decode["attempted"],
        failed=sum(not o.ok for o in issued) + sum(not ok for _, ok in checks) + decode["failed"],
        checks=[{"check": text, "ok": ok} for text, ok in checks],
        manifest=manifest(workload, seed, seconds),
    )
    if tracer is None:
        result["end_to_end"] = end_to_end(wl, done)
    else:
        result["per_layer"] = per_layer(workload, wl, tracer, done, untraced_tok_s, decode["metrics"])
        result["traced_requests"] = len(done)
        result["layer_table"] = tracing.layer_table(tracer.spans)
        common.OUT_DIR.mkdir(exist_ok=True)
        trace_path = common.OUT_DIR / f"trace-{workload}-seed{seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(common.ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
