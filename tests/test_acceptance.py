"""Acceptance gate: one printed verdict line per criterion.

Criteria 1-9 are hard gates; 10 and 11 are directional trends that are
reported with their measured values but do not fail the suite. The heavy
runs behind criteria 9-11 (full smoke trainings and a budget sweep) cache
their artifacts under tests/_artifacts and are reused on later invocations;
delete that directory to retrain from scratch. A cold run regenerates them
through scripts/run_smoke.py and scripts/run_budget_sweep.py and can take
around 45 minutes on one core. Those scripts stamp their outputs with a
code-and-options fingerprint (scripts/artifact_stamp.py); criteria 9-11 add
STALE to their detail line when a cached artifact's stamp is missing or is
not the one the checked-in code would write. The verdicts do not change.
"""
import csv
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cycleformer import autodiff as ad
from cycleformer.adaptive import DecodeCache, ExitPolicy, decode_step, exit_cycle, generate
from cycleformer.checkpoint import load_checkpoint, save_checkpoint, save_model
from cycleformer.data import ByteVocabulary, load_corpus, make_synthetic_corpus, split_corpus
from cycleformer.evaluate import evaluate
from cycleformer.model import (
    ModelConfig,
    attention_with_zero_token,
    build_schedule,
    forward,
    gated_ffn,
    init_parameters,
    param_count,
)
from cycleformer.optim import AdamW
from cycleformer.train import TrainPlan, multi_exit_loss, train

from gradcheck import check_grads
from stepper import step_applications
from test_model import _uniform_rows_hidden, _zkey_for_logit

TESTS = Path(__file__).resolve().parent
ART = TESTS / "_artifacts"
SCRIPTS = TESTS.parent / "scripts"
SMOKE_CORPUS = ART / "smoke_corpus.bin"


@pytest.fixture()
def announce(capsys):
    def _line(num, verdict, detail):
        with capsys.disabled():
            print(f"[criterion {num:>2}] {verdict:<6} {detail}", flush=True)

    return _line


def _ensure_corpus() -> Path:
    ART.mkdir(exist_ok=True)
    if not SMOKE_CORPUS.exists():
        SMOKE_CORPUS.write_bytes(make_synthetic_corpus(1_000_000, seed=0))
    return SMOKE_CORPUS


def _wait_or_run(target: Path, log: Path, cmd: list[str], wait_minutes: int = 50):
    """Reuse a cached artifact; wait for an in-flight producer; else produce."""
    if target.exists():
        return
    fresh_log = log.exists() and (time.time() - log.stat().st_mtime) < 3600
    if fresh_log:
        print(f"waiting for in-flight run to produce {target.name} ...", flush=True)
        deadline = time.time() + wait_minutes * 60
        while time.time() < deadline:
            if target.exists():
                return
            time.sleep(10)
        raise RuntimeError(f"timed out waiting for {target}")
    print(f"cache cold: running {' '.join(cmd[:3])} ... (this trains a real model)", flush=True)
    subprocess.run(cmd, check=True, cwd=TESTS.parent)


def _stale_note(stamps: set, script: str, argv: list[str]) -> str:
    """'' when every stamp is the one `script` run with `argv` would write
    from the checked-in code, else a STALE note for a detail line."""
    if os.fspath(SCRIPTS) not in sys.path:
        sys.path.insert(0, os.fspath(SCRIPTS))  # the scripts import each other by name
    args = importlib.import_module(script).parse_args(argv)
    if stamps == {importlib.import_module("artifact_stamp").stamp(args)}:
        return ""
    return " STALE: " + ("no code fingerprint" if None in stamps else "made by other code or options")


def _smoke_result(seed: int) -> tuple[dict, str]:
    """The smoke run's result.json and its stale note."""
    _ensure_corpus()
    out_dir = ART / f"smoke_s{seed}"
    target = out_dir / "result.json"
    argv = [
        "--out-dir", os.fspath(out_dir),
        "--corpus", os.fspath(SMOKE_CORPUS),
        "--seed", str(seed),
    ]
    _wait_or_run(
        target, ART / f"smoke_s{seed}.log", [sys.executable, os.fspath(SCRIPTS / "run_smoke.py"), *argv]
    )
    with open(target) as fh:
        result = json.load(fh)
    return result, _stale_note({result.get("fingerprint")}, "run_smoke", argv)


def _sweep_rows() -> tuple[list[dict], str]:
    """The budget sweep's CSV rows and their stale note."""
    _ensure_corpus()
    target = ART / "sweep_budget6.csv"
    argv = ["--corpus", os.fspath(SMOKE_CORPUS), "--csv", os.fspath(target)]
    _wait_or_run(
        target, ART / "sweep.log", [sys.executable, os.fspath(SCRIPTS / "run_budget_sweep.py"), *argv]
    )
    with open(target) as fh:
        rows = list(csv.DictReader(fh))
    return rows, _stale_note({r.get("fingerprint") for r in rows}, "run_budget_sweep", argv)


@pytest.fixture(scope="session")
def byte_model():
    """A small but genuinely trained zero-token model on real corpus bytes."""
    ids = ByteVocabulary().encode(_ensure_corpus().read_bytes()[:60_000])
    cfg = ModelConfig(
        variant="ZTT", all_layers=4, loop_count=3, d_model=32, n_heads=2,
        d_ff=128, vocab=259, t_max=32, early_exit_heads=True,
    )
    result = train(cfg, TrainPlan(steps=60, batch=4, lr=3e-3, seed=0), ids)
    return cfg, result.params, ids


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_suite(announce):
    t0 = time.time()
    cfg = ModelConfig(
        variant="ZTT", all_layers=4, loop_count=2, d_model=16, n_heads=2,
        d_ff=32, vocab=13, t_max=5, early_exit_heads=True,
    )
    params = init_parameters(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    ids = rng.integers(0, cfg.vocab, size=(2, 5))
    targets = rng.integers(0, cfg.vocab, size=(2, 5))

    def loss():
        res = forward(ids, params, cfg, capture_exits=True)
        total, _ = multi_exit_loss(res.exit_logits, targets)
        return total

    named = params.named()
    failures = check_grads(loss, named, rng, h=1e-5, rtol=1e-4, max_entries_per_param=6)
    groups = {
        "embeddings": "tok_emb", "attention": ".attn.wq", "ffn": ".ffn.w1", "norms": ".ln1.g",
        "gates": ".gate.w", "zero_keys": "zero_key.", "final_norm": "final_norm.g",
    }
    missing_groups = [g for g, frag in groups.items() if not any(frag in n for n in named)]
    dt = time.time() - t0
    ok = not failures and not missing_groups and dt < 60
    announce(
        1, "PASS" if ok else "FAIL",
        f"finite differences over {len(named)} tensors in every group, "
        f"{len(failures)} failures, {dt:.1f}s",
    )
    assert not missing_groups, missing_groups
    assert not failures, failures[:5]
    assert dt < 60


def test_criterion_02_zero_token_identities(announce):
    cfg = ModelConfig(
        variant="ZTT", all_layers=3, loop_count=2, d_model=16, n_heads=2,
        d_ff=32, vocab=11, t_max=8,
    )
    params = init_parameters(cfg, seed=9, dtype=np.float64)
    rec = params.record(2)
    h = _uniform_rows_hidden(16, 6, seed=10)
    sat = _zkey_for_logit(h[0, 0], rec, 2, +40.0)
    h_att, zattn, _ = attention_with_zero_token(
        ad.tensor(h, dtype=np.float64), rec, ad.constant(sat, dtype=np.float64), 2
    )
    sat_err = float(np.abs(h_att.data - h).max())

    # suppression at the whole-model level: a zero-token stack with every
    # slot-0 logit pinned to -40 must match the plain head-tail stack
    l, n, d, heads = 4, 3, 16, 2
    htc_cfg = ModelConfig(
        variant="HTC", all_layers=l, loop_count=n, d_model=d, n_heads=heads,
        d_ff=32, vocab=11, t_max=8,
    )
    htc = init_parameters(htc_cfg, seed=13, dtype=np.float64)
    htc.pos_emb.data[...] = 0.0
    ids = np.full(6, 3)
    base = forward(ids, htc, htc_cfg)
    ztt_cfg = ModelConfig(
        variant="ZTT", all_layers=l, loop_count=n, d_model=d, n_heads=heads,
        d_ff=32, vocab=11, t_max=8, use_gate=False,
    )
    ztt = init_parameters(ztt_cfg, seed=13, dtype=np.float64)
    for name, t in htc.named().items():
        ztt.named()[name].data[...] = t.data
    ztt.pos_emb.data[...] = 0.0
    for step in step_applications(ids, htc, htc_cfg):
        if step.layer in ztt_cfg.cycled_layers:
            key = _zkey_for_logit(step.h_in[0, 0], ztt.record(step.layer), heads, -40.0)
            ztt.pool[(step.layer, step.cycle)].data[...] = key
    sup_err = float(np.abs(forward(ids, ztt, ztt_cfg).logits.data - base.logits.data).max())

    ok = sat_err <= 1e-5 and sup_err <= 1e-5 and np.all(zattn > 1 - 1e-6)
    announce(
        2, "PASS" if ok else "FAIL",
        f"saturated slot-0 identity err {sat_err:.1e}, "
        f"suppressed-vs-plain logits err {sup_err:.1e} (tol 1e-5)",
    )
    assert ok


def test_criterion_03_gate_identities(announce):
    cfg = ModelConfig(
        variant="ZTT", all_layers=3, loop_count=2, d_model=16, n_heads=2,
        d_ff=32, vocab=11, t_max=8,
    )
    params = init_parameters(cfg, seed=14, dtype=np.float64)
    rec = params.record(2)
    h = ad.tensor(np.random.default_rng(15).normal(size=(2, 5, 16)), dtype=np.float64)
    ungated, _ = gated_ffn(h, rec, use_gate=False)
    rec.gate_w.data[...] = 0.0
    rec.gate_b.data[...] = +40.0
    open_out, _ = gated_ffn(h, rec, use_gate=True)
    rec.gate_b.data[...] = -40.0
    closed_out, _ = gated_ffn(h, rec, use_gate=True)
    open_err = float(np.abs(open_out.data - ungated.data).max())
    closed_err = float(np.abs(closed_out.data - h.data).max())
    ok = open_err <= 1e-6 and closed_err <= 1e-6
    announce(
        3, "PASS" if ok else "FAIL",
        f"gate->1 vs ungated err {open_err:.1e}, gate->0 vs residual err {closed_err:.1e} (tol 1e-6)",
    )
    assert ok


def test_criterion_04_schedule_formula(announce):
    rng = np.random.default_rng(42)
    failures = 0
    for _ in range(1000):
        variant = ("V", "BC", "HTC", "ZTT")[int(rng.integers(4))]
        if variant == "V":
            l, n = int(rng.integers(1, 9)), 1
        elif variant == "BC":
            l, n = int(rng.integers(1, 7)), int(rng.integers(2, 6))
        else:
            l, n = int(rng.integers(3, 8)), int(rng.integers(2, 6))
        cfg = ModelConfig(
            variant=variant, all_layers=l, loop_count=n, d_model=8, n_heads=2,
            d_ff=16, vocab=11, t_max=8,
        )
        c = len(cfg.cycled_layers)
        if len(build_schedule(cfg).applications) != l - c + c * n:
            failures += 1
    pinned = []
    for variant, l, n in (("V", 6, 1), ("BC", 3, 2), ("HTC", 3, 4), ("ZTT", 3, 4)):
        cfg = ModelConfig(
            variant=variant, all_layers=l, loop_count=n, d_model=8, n_heads=2,
            d_ff=16, vocab=11, t_max=8,
        )
        pinned.append(len(build_schedule(cfg).applications))
    ok = failures == 0 and pinned == [6, 6, 6, 6]
    announce(
        4, "PASS" if ok else "FAIL",
        f"1000 random configs, {failures} failures; canonical depth-6 layouts -> {pinned}",
    )
    assert ok


def test_criterion_05_parameter_accounting(announce):
    rng = np.random.default_rng(7)
    allocated = lambda cfg: sum(t.data.size for t in init_parameters(cfg, seed=0).named().values())
    mismatches = 0
    checked = 0
    for _ in range(60):
        heads = int(rng.integers(1, 4))
        d = heads * int(rng.integers(2, 9))
        l = int(rng.integers(3, 6))
        n = int(rng.integers(2, 5))
        base = dict(d_model=d, n_heads=heads, d_ff=2 * d, vocab=23, t_max=8)
        v = ModelConfig(variant="V", all_layers=l, loop_count=1, **base)
        bc = ModelConfig(variant="BC", all_layers=l, loop_count=n, **base)
        htc = ModelConfig(variant="HTC", all_layers=l, loop_count=n, **base)
        ztt = ModelConfig(variant="ZTT", all_layers=l, loop_count=n, **base)
        pool_gate = (l - 2) * n * d + l * (d + 1)
        for cfg in (v, bc, htc, ztt):
            checked += 1
            if param_count(cfg)["total"] != allocated(cfg):
                mismatches += 1
        if param_count(bc)["total"] != param_count(v)["total"]:
            mismatches += 1
        if allocated(bc) != allocated(v):
            mismatches += 1
        if param_count(ztt)["total"] - param_count(htc)["total"] != pool_gate:
            mismatches += 1
        if allocated(ztt) - allocated(htc) != pool_gate:
            mismatches += 1
    pin = dict(d_model=16, n_heads=2, d_ff=32, vocab=23, t_max=8)
    delta_pin = param_count(
        ModelConfig(variant="ZTT", all_layers=3, loop_count=4, **pin)
    )["total"] - param_count(ModelConfig(variant="HTC", all_layers=3, loop_count=4, **pin))["total"]
    ok = mismatches == 0 and delta_pin == 115
    announce(
        5, "PASS" if ok else "FAIL",
        f"closed form == allocation on {checked} configs, repeat-stack == vanilla, "
        f"pool+gate delta exact (d=16 N=4 case: {delta_pin})",
    )
    assert ok


def test_criterion_06_early_exit(announce, byte_model):
    trace = [0.21, 0.47, 0.54, 0.65]
    grid = {0.2: 1, 0.5: 3, 0.7: None, 1.0: None}  # None: runs all cycles
    pinned_ok = all(exit_cycle(trace, p) == want for p, want in grid.items())

    cfg, params, ids = byte_model
    prompt = ids[100:124]
    means = []
    for p in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        res = generate(params, cfg, prompt, 0, policy=ExitPolicy(threshold=p))
        means.append(float(np.mean(res.cycles_used)))
        if p == 1.0:
            full_depth = all(c == cfg.loop_count for c in res.cycles_used)
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    exact_at_one = means[-1] == float(cfg.loop_count) and full_depth

    report = evaluate(params, cfg, ids[:20_001], policy=ExitPolicy(threshold=1.0), batch=4)
    eval_exact = report.adaptive.avg_loop == float(cfg.loop_count)

    ok = pinned_ok and monotone and exact_at_one and eval_exact
    announce(
        6, "PASS" if ok else "FAIL",
        f"pinned trace exits {{0.2: 1, 0.5: 3, 0.7: full, 1: full}}; trained-model mean "
        f"cycles over thresholds {[round(m, 2) for m in means]} (monotone, exactly N at 1)",
    )
    assert ok


def test_criterion_07_decode_cache_oracle(announce):
    cfg = ModelConfig(
        variant="ZTT", all_layers=4, loop_count=3, d_model=64, n_heads=4,
        d_ff=128, vocab=259, t_max=32,
    )
    params = init_parameters(cfg, seed=3)  # float32, as trained models are
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(1, cfg.t_max + 1))
        prompt = rng.integers(0, cfg.vocab, size=t)
        want = forward(prompt, params, cfg).logits.data
        cache = DecodeCache(params, cfg)
        got = np.stack([decode_step(cache, int(tok))[0] for tok in prompt])
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-5
    announce(
        7, "PASS" if ok else "FAIL",
        f"incremental vs recomputed logits on 100 random prompts: max err {worst:.2e} (tol 1e-5)",
    )
    assert ok


def test_criterion_08_determinism(announce, tmp_path):
    cfg = ModelConfig(
        variant="ZTT", all_layers=3, loop_count=2, d_model=32, n_heads=2,
        d_ff=64, vocab=259, t_max=16, early_exit_heads=True,
    )
    ids = ByteVocabulary().encode(_ensure_corpus().read_bytes()[:30_000])
    plan = TrainPlan(steps=10, batch=4, lr=1e-3, seed=6)
    a = train(cfg, plan, ids)
    b = train(cfg, plan, ids)
    bitwise = a.losses == b.losses

    p1 = os.fspath(tmp_path / "a.ckpt")
    p2 = os.fspath(tmp_path / "b.ckpt")
    tensors = {k: t.data for k, t in a.params.named().items()}
    tensors.update(AdamW(a.params.named()).state_tensors())
    save_checkpoint(p1, "seed=6\n", tensors)
    text, loaded = load_checkpoint(p1)
    save_checkpoint(p2, text, loaded)
    roundtrip = open(p1, "rb").read() == open(p2, "rb").read()

    ok = bitwise and roundtrip
    announce(
        8, "PASS" if ok else "FAIL",
        f"10-step losses bitwise equal across runs: {bitwise}; "
        f"checkpoint save/load/save byte-identical: {roundtrip}",
    )
    assert ok


def test_criterion_09_smoke_training(announce):
    r, stale = _smoke_result(0)
    ratio = r["loss_final"] / r["loss_initial"]
    ok = r["steps"] == 2000 and r["loss_final"] < 0.8 * r["loss_initial"]
    announce(
        9, "PASS" if ok else "FAIL",
        f"1MB corpus, d=128/h=4/L=4/N=3, {r['steps']} steps in {r['runtime_s']/60:.1f} min: "
        f"loss {r['loss_initial']:.3f} -> {r['loss_final']:.3f} ({ratio:.2f}x, need <0.8x)"
        + stale,
    )
    assert ok


def test_criterion_10_telemetry_trends(announce):
    seeds_ok = 0
    details = []
    stale = ""
    for seed in (0, 1, 2):
        r, note = _smoke_result(seed)
        stale = stale or note
        cyc = sorted(r["valid"]["cycles"], key=lambda c: c["cycle"])
        z = [c["zero_attn"] for c in cyc]
        g = [c["gate"] for c in cyc]
        rising = all(b >= a for a, b in zip(z, z[1:]))
        falling = all(b <= a for a, b in zip(g, g[1:]))
        seeds_ok += rising and falling
        details.append(
            f"seed {seed}: zero_attn {[round(x, 3) for x in z]}"
            f"{'^' if rising else '!'} gate {[round(x, 3) for x in g]}{'v' if falling else '!'}"
        )
    announce(
        10, "REPORT",
        f"zero-attention rising and gate falling across cycles in {seeds_ok}/3 seeds "
        f"(target >=2/3, not gated). " + "; ".join(details) + stale,
    )


def test_criterion_11_budget_sweep(announce):
    rows, stale = _sweep_rows()
    ppl = {(r["variant"], int(r["seed"])): float(r["eval_ppl"]) for r in rows}
    seeds = sorted({int(r["seed"]) for r in rows})
    wins = {"HTC": 0, "ZTT": 0}
    details = []
    for s in seeds:
        for v in ("HTC", "ZTT"):
            wins[v] += ppl[(v, s)] <= ppl[("BC", s)]
        details.append(
            f"seed {s}: BC {ppl[('BC', s)]:.1f} HTC {ppl[('HTC', s)]:.1f} ZTT {ppl[('ZTT', s)]:.1f}"
        )
    announce(
        11, "REPORT",
        f"depth-budget 6: HTC <= BC in {wins['HTC']}/{len(seeds)} seeds, "
        f"ZTT <= BC in {wins['ZTT']}/{len(seeds)} seeds (directional, not gated). "
        + "; ".join(details)
        + stale,
    )
