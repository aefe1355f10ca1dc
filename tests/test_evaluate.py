"""Evaluation reports, adaptive per-position scoring, the two-thread split of
each window group, and layout enumeration."""
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleformer.evaluate as evaluate_mod
import cycleformer.model as model_mod
from cycleformer.adaptive import ExitPolicy
from cycleformer.autodiff import Tape, softmax_np
from cycleformer.config import RunConfig, model_config
from cycleformer.errors import ConfigError, DataError
from cycleformer.evaluate import (
    EvalReport,
    budget_sweep,
    enumerate_layouts,
    evaluate,
    format_sweep,
)
from cycleformer.model import ModelConfig, aggregate, forward, init_parameters

from exit_oracle import batch_oracle


def make_model(variant="ZTT", l=4, n=3, vocab=59, t_max=8, seed=0, dtype=np.float64, **kw):
    cfg = ModelConfig(
        variant=variant, all_layers=l, loop_count=n, d_model=16, n_heads=2,
        d_ff=32, vocab=vocab, t_max=t_max, **kw,
    )
    return cfg, init_parameters(cfg, seed=seed, dtype=dtype)


def corpus(n=700, vocab=59, seed=0):
    return np.random.default_rng(seed).integers(0, vocab, size=n).astype(np.int64)


# ---------------------------------------------------------------------------
# basic report shape and calibration


def test_zeroed_model_scores_uniform():
    # with every weight at zero the logits are identically zero, so each
    # token costs exactly ln(vocab) nats
    cfg, params = make_model(vocab=259)
    for t in params.named().values():
        t.data[...] = 0.0
    report = evaluate(params, cfg, corpus(1200, vocab=259), batch=4)
    assert report.loss == pytest.approx(math.log(259), abs=1e-9)
    assert report.ppl == pytest.approx(259.0, rel=0.01)
    assert [e.loss for e in report.exits] == pytest.approx([math.log(259)] * cfg.loop_count)


def test_report_shape_and_counts():
    cfg, params = make_model()
    ids = corpus(500)
    report = evaluate(params, cfg, ids, batch=4)
    n_win = (len(ids) - 1) // cfg.t_max
    assert report.n_tokens == n_win * cfg.t_max
    assert [e.exit_index for e in report.exits] == [1, 2, 3]
    assert report.loss == report.exits[-1].loss
    assert [c.cycle for c in report.cycles] == [1, 2, 3]
    assert all(c.zero_attn is not None and c.gate is not None for c in report.cycles)
    assert all(0.0 < c.zero_attn < 1.0 for c in report.cycles)


def test_vanilla_has_single_exit_and_no_cycle_stats():
    cfg, params = make_model("V", l=3, n=1)
    report = evaluate(params, cfg, corpus(300))
    assert len(report.exits) == 1
    assert report.cycles == []


def test_plain_head_tail_has_no_zero_or_gate_stats():
    cfg, params = make_model("HTC", l=4, n=2)
    report = evaluate(params, cfg, corpus(300))
    assert len(report.exits) == 2
    assert report.cycles == []


def test_too_short_corpus():
    cfg, params = make_model()
    with pytest.raises(DataError):
        evaluate(params, cfg, np.arange(cfg.t_max, dtype=np.int64))


def test_max_batches_truncates():
    cfg, params = make_model()
    report = evaluate(params, cfg, corpus(2000), batch=3, max_batches=2)
    assert report.n_batches == 2
    assert report.n_tokens == 2 * 3 * cfg.t_max


@pytest.mark.parametrize("kw", [dict(batch=0), dict(batch=-2), dict(max_batches=0)])
def test_empty_batches_rejected(kw):
    cfg, params = make_model()
    with pytest.raises(ConfigError):
        evaluate(params, cfg, corpus(), **kw)


def test_cycle_stats_weight_each_window_group_by_its_tokens():
    # Ten windows at batch 3: groups of 3, 3, 3 and 1 windows, so the partial
    # last group counts a third as much as each full one. A full group's
    # halves hold 1 and 2 windows, and each half's means count by its windows.
    cfg, params = make_model()
    t, n_win, batch = cfg.t_max, 10, 3
    ids = corpus(n_win * t + 1, seed=5)
    report = evaluate(params, cfg, ids, batch=batch)
    groups = [
        np.stack([ids[w * t : w * t + t] for w in range(s, min(s + batch, n_win))])
        for s in range(0, n_win, batch)
    ]
    toks = [g.size for g in groups]
    assert toks == [3 * t, 3 * t, 3 * t, t] and report.n_tokens == sum(toks)
    halves = [[g[:1], g[1:]] if len(g) > 1 else [g] for g in groups]
    results = [[forward(h, params, cfg) for h in hs] for hs in halves]
    assert [c.cycle for c in report.cycles] == [1, 2, 3]
    for stat in report.cycles:
        for name in ("zero_attn", "gate"):
            per_group = [
                np.dot([np.mean(getattr(r, name)[stat.cycle]) for r in rs], [len(h) for h in hs]) / sum(map(len, hs))
                for rs, hs in zip(results, halves)
            ]
            want = np.dot(per_group, toks) / sum(toks)
            assert getattr(stat, name) == pytest.approx(want, rel=1e-12, abs=0.0)
            # Both weightings matter: an unweighted mean of the groups, or of
            # each group's halves, differs.
            assert abs(want - np.mean(per_group)) > 1e-9
            by_halves = [np.mean([np.mean(getattr(r, name)[stat.cycle]) for r in rs]) for rs in results]
            assert abs(want - np.dot(by_halves, toks) / sum(toks)) > 1e-9


def test_evaluate_reports_the_same_from_uint16_or_int64_ids():
    # Streams from `load_corpus` are uint16; evaluate widens each window
    # group to int64, not the whole stream.
    cfg, params = make_model(vocab=259)
    ids = corpus(900, vocab=259, seed=3)
    for policy in (None, ExitPolicy(threshold=0.5)):
        wide = evaluate(params, cfg, ids, policy, batch=3)
        narrow = evaluate(params, cfg, ids.astype(np.uint16), policy, batch=3)
        assert repr(narrow) == repr(wide)


def test_evaluate_is_pure():
    cfg, params = make_model()
    ids = corpus(400)
    before = {k: t.data.copy() for k, t in params.named().items()}
    a = evaluate(params, cfg, ids)
    b = evaluate(params, cfg, ids)
    assert a.loss == b.loss and a.n_tokens == b.n_tokens
    for k, t in params.named().items():
        np.testing.assert_array_equal(t.data, before[k], err_msg=k)


# ---------------------------------------------------------------------------
# adaptive scoring


@pytest.mark.parametrize("variant,l,n", [("V", 3, 1), ("BC", 3, 2), ("HTC", 4, 2)])
def test_adaptive_rejected_without_zero_token(variant, l, n):
    cfg, params = make_model(variant, l, n)
    with pytest.raises(ConfigError):
        evaluate(params, cfg, corpus(300), policy=ExitPolicy(threshold=0.5))


def test_threshold_one_equals_final_exit_exactly():
    cfg, params = make_model()
    ids = corpus(800)
    report = evaluate(params, cfg, ids, policy=ExitPolicy(threshold=1.0))
    assert report.adaptive is not None
    assert report.adaptive.loss == report.exits[-1].loss  # same floats, same order
    assert report.adaptive.avg_loop == float(cfg.loop_count)
    assert report.adaptive.exit_counts == (0,) * (cfg.loop_count - 1) + (report.n_tokens,)


def test_threshold_zero_exits_first_cycle():
    cfg, params = make_model()
    report = evaluate(params, cfg, corpus(800), policy=ExitPolicy(threshold=0.0))
    assert report.adaptive.avg_loop == 1.0
    assert report.adaptive.loss == report.exits[0].loss


def test_adaptive_matches_per_position_oracle():
    # Each position is scored with the logits decode emits: the tail over
    # every position's own exit state (the plain-numpy batch oracle).
    cfg, params = make_model(seed=3)
    ids = corpus(cfg.t_max * 2 + 1, seed=5)  # two windows, one batch
    thr = 0.3

    want_nll, want_loops = [], []
    for w in range(2):
        window = ids[w * cfg.t_max : (w + 1) * cfg.t_max + 1]
        depths, logits, _ = batch_oracle(params, cfg, window[:-1], thr)
        want_loops += depths
        logp = np.log(softmax_np(logits, axis=-1))
        want_nll += (-logp[np.arange(cfg.t_max), window[1:]]).tolist()

    report = evaluate(params, cfg, ids, policy=ExitPolicy(threshold=thr))
    assert report.adaptive.avg_loop == pytest.approx(np.mean(want_loops), abs=1e-12)
    assert report.adaptive.exit_counts == tuple(
        want_loops.count(c) for c in range(1, cfg.loop_count + 1)
    )
    assert report.adaptive.loss == pytest.approx(np.mean(want_nll), abs=1e-10)
    assert len(set(want_loops)) >= 2  # the threshold actually splits positions


@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.6, 1.0])
def test_exit_counts_cover_every_token_and_weight_to_avg_loop(threshold):
    cfg, params = make_model(seed=7)
    report = evaluate(params, cfg, corpus(900, seed=9), policy=ExitPolicy(threshold=threshold))
    counts = report.adaptive.exit_counts
    assert len(counts) == cfg.loop_count and sum(counts) == report.n_tokens
    weighted = sum(c * n for c, n in enumerate(counts, 1)) / report.n_tokens
    assert weighted == report.adaptive.avg_loop


def test_higher_threshold_never_lowers_avg_loop():
    cfg, params = make_model(seed=7)
    ids = corpus(900, seed=9)
    loops = [
        evaluate(params, cfg, ids, policy=ExitPolicy(threshold=p)).adaptive.avg_loop
        for p in (0.0, 0.2, 0.4, 0.8, 1.0)
    ]
    assert all(b >= a for a, b in zip(loops, loops[1:]))
    assert loops[0] == 1.0 and loops[-1] == float(cfg.loop_count)


# ---------------------------------------------------------------------------
# each half of a window group walks and is scored on its own thread


def _spy_forwards(monkeypatch):
    """Record (thread, windows) of every forward evaluate makes."""
    calls = []
    inner = evaluate_mod.forward

    def spy(ids, *args, **kwargs):
        calls.append((threading.current_thread(), len(ids)))
        return inner(ids, *args, **kwargs)

    monkeypatch.setattr(evaluate_mod, "forward", spy)
    return calls


def walked_report(params, cfg, ids, threshold, batch, halves):
    """The fields of `evaluate`'s report, rebuilt on this thread from taped
    forwards (which walk here): the NLLs, exit counts and avg_loop from the
    logits of each whole window group, or with `halves` of its two halves
    joined; the per-cycle means from the halves', weighted by windows."""
    t = cfg.t_max
    n_win = (len(ids) - 1) // t
    nll, ada, counts, n_tok = np.zeros(cfg.n_exits), 0.0, np.zeros(cfg.loop_count, np.int64), 0
    cycles = {"zero_attn": {}, "gate": {}}
    for start in range(0, n_win, batch):
        x = np.stack([ids[w * t : w * t + t] for w in range(start, min(start + batch, n_win))])
        y = np.stack([ids[w * t + 1 : w * t + t + 1] for w in range(start, min(start + batch, n_win))])
        b = len(x)
        parts = [slice(0, b // 2), slice(b // 2, b)] if b >= 2 else [slice(0, b)]
        with Tape():
            split = [forward(x[p], params, cfg, capture_exits=True, exit_threshold=threshold) for p in parts]
            whole = forward(x, params, cfg, capture_exits=True, exit_threshold=threshold)
        scored = list(zip(split, parts)) if halves else [(whole, slice(0, b))]
        nll += np.stack([
            np.concatenate([evaluate_mod._nll(r.exit_logits[i].data, y[p]) for r, p in scored])
            for i in range(cfg.n_exits)
        ]).sum(axis=(1, 2))
        if threshold is not None:
            ada += np.concatenate([evaluate_mod._nll(r.adaptive_logits.data, y[p]) for r, p in scored]).sum()
            counts += np.bincount(np.concatenate([r.exit_cycle for r, _ in scored]).ravel() - 1,
                                  minlength=cfg.loop_count)
        for name, sums in cycles.items():
            for n in getattr(split[0], name):
                means = [sum((p.stop - p.start) * getattr(r, name)[n][j] for r, p in zip(split, parts)) / b
                         for j in range(len(getattr(split[0], name)[n]))]
                sums[n] = sums.get(n, 0.0) + aggregate(means) * y.size
        n_tok += y.size
    zattn, gate = cycles["zero_attn"], cycles["gate"]
    out = {
        "exits": [v / n_tok for v in nll],
        "cycles": {n: (zattn[n] / n_tok if n in zattn else None, gate[n] / n_tok if n in gate else None)
                   for n in sorted(zattn | gate)},
    }
    if threshold is not None:
        out["adaptive"] = (ada / n_tok, int(counts @ np.arange(1, cfg.loop_count + 1)) / n_tok, tuple(counts))
    return out


def assert_report_is(report, want):
    assert [e.loss for e in report.exits] == want["exits"]
    assert {c.cycle: (c.zero_attn, c.gate) for c in report.cycles} == want["cycles"]
    if "adaptive" in want:
        a = report.adaptive
        assert (a.loss, a.avg_loop, a.exit_counts) == want["adaptive"]
    else:
        assert report.adaptive is None


@pytest.mark.parametrize("variant,kw,thresholds", [
    ("V", {"n": 1, "l": 3}, [None]),
    ("BC", {}, [None]),
    ("HTC", {}, [None]),
    ("HTC", {"use_zero_token": True}, [None, 0.5, 1.0]),
    ("ZTT", {}, [None, 0.5, 1.0]),
])
def test_evaluate_walks_each_half_of_a_group_on_its_own_thread(variant, kw, thresholds, monkeypatch):
    # Five windows at batch 3: a group of 3 (1 window here, 2 on the
    # helper), then one of 2 (1 and 1); at batch 1 every window walks here.
    cfg, params = make_model(variant, **{"l": 4, "n": 3, "dtype": np.float32, **kw})
    ids = corpus(5 * cfg.t_max + 1, seed=11)
    caller = threading.current_thread()
    calls = _spy_forwards(monkeypatch)
    for threshold in thresholds:
        calls.clear()
        report = evaluate(params, cfg, ids, ExitPolicy(threshold), batch=3)
        # A group's two halves may start in either order, but both finish
        # before the next group starts.
        groups = [sorted((th is caller, n) for th, n in calls[i : i + 2]) for i in (0, 2)]
        assert len(calls) == 4 and groups == [[(False, 2), (True, 1)], [(False, 1), (True, 1)]]
        assert all(th.name == "cycleformer-walk" for th, _ in calls if th is not caller)
        assert_report_is(report, walked_report(params, cfg, ids, threshold, 3, halves=True))
        calls.clear()
        one = evaluate(params, cfg, ids, ExitPolicy(threshold), batch=1)
        assert calls == [(caller, 1)] * 5
        assert_report_is(one, walked_report(params, cfg, ids, threshold, 1, halves=True))


@pytest.mark.parametrize("b", [2, 5, 8])
def test_evaluate_at_the_canonical_shape_scores_the_whole_group_walk_bitwise(b):
    # At T=64 the halves' logits are bitwise the whole group's, so every NLL,
    # exit count and avg_loop is that of one walk of the whole group.
    cfg = model_config(RunConfig(early_exit_heads=True))
    params = init_parameters(cfg, seed=35, dtype=np.float32)
    ids = corpus(b * cfg.t_max + 1, vocab=cfg.vocab, seed=36 + b)
    for threshold in (None, 0.5, 1.0):
        report = evaluate(params, cfg, ids, ExitPolicy(threshold), batch=b)
        assert_report_is(report, walked_report(params, cfg, ids, threshold, b, halves=False))


def test_evaluate_on_short_windows_scores_its_halves_walked_alone():
    # At T=7 the halves' GEMMs take other OpenBLAS kernels than the whole
    # group's can, so the contract is the two halves' one-thread walks,
    # scored and joined in window order.
    cfg = replace(model_config(RunConfig(early_exit_heads=True)), t_max=7)
    params = init_parameters(cfg, seed=37, dtype=np.float32)
    ids = corpus(3 * cfg.t_max + 1, vocab=cfg.vocab, seed=38)
    for threshold in (None, 0.5, 1.0):
        report = evaluate(params, cfg, ids, ExitPolicy(threshold), batch=3)
        assert_report_is(report, walked_report(params, cfg, ids, threshold, 3, halves=True))


def _two_window_model(seed):
    cfg, params = make_model("ZTT", l=4, n=3, dtype=np.float32, seed=seed)
    return cfg, params, corpus(2 * cfg.t_max + 1, seed=seed + 1)


def test_an_error_in_the_helpers_half_is_raised_by_evaluate(monkeypatch):
    cfg, params, ids = _two_window_model(29)
    want = evaluate(params, cfg, ids, ExitPolicy(0.5), batch=2)
    caller = threading.current_thread()
    inner = model_mod._lm_logits
    failed = []

    def fail_once_on_the_helper(h, params):
        if threading.current_thread() is not caller and not failed:
            failed.append(threading.current_thread())
            raise RuntimeError("helper half failed")
        return inner(h, params)

    monkeypatch.setattr(model_mod, "_lm_logits", fail_once_on_the_helper)
    with pytest.raises(RuntimeError, match="helper half failed"):
        evaluate(params, cfg, ids, ExitPolicy(0.5), batch=2)
    assert len(failed) == 1
    assert repr(evaluate(params, cfg, ids, ExitPolicy(0.5), batch=2)) == repr(want)


def test_a_failed_evaluate_raises_only_after_the_helpers_half_finishes(monkeypatch):
    # The caller's half raises at its first LM head while the helper's half
    # is slow: evaluate waits for all four of the helper's LM heads (exits 1
    # and 2, the gathered tail, the final tail) and its scoring before it
    # raises.
    cfg, params, ids = _two_window_model(33)
    want = evaluate(params, cfg, ids, ExitPolicy(0.5), batch=2)
    caller = threading.current_thread()
    inner_head, inner_nll = model_mod._lm_logits, evaluate_mod._nll
    finished, scored = [], []

    def slow_on_the_helper_failing_here(h, params):
        if threading.current_thread() is caller:
            raise RuntimeError("caller half failed")
        time.sleep(0.05)
        finished.append(inner_head(h, params))
        return finished[-1]

    def count(logits, targets):
        scored.append(threading.current_thread())
        return inner_nll(logits, targets)

    monkeypatch.setattr(model_mod, "_lm_logits", slow_on_the_helper_failing_here)
    monkeypatch.setattr(evaluate_mod, "_nll", count)
    with pytest.raises(RuntimeError, match="caller half failed"):
        evaluate(params, cfg, ids, ExitPolicy(0.5), batch=2)
    assert len(finished) == cfg.n_exits + 1
    assert len(scored) == cfg.n_exits + 1 and caller not in scored
    monkeypatch.setattr(model_mod, "_lm_logits", inner_head)
    assert repr(evaluate(params, cfg, ids, ExitPolicy(0.5), batch=2)) == repr(want)


def test_concurrent_evaluates_share_one_helper_and_get_their_own_reports():
    # Four callers on two cores, switching threads every microsecond: each
    # gets its own corpus's report back, and all of them share one helper.
    cfg, params = make_model("ZTT", l=4, n=3, dtype=np.float32, seed=31)
    corpora = [corpus(2 * cfg.t_max + 1, seed=32 + i) for i in range(4)]

    def run(ids):
        return repr(evaluate(params, cfg, ids, ExitPolicy(0.5), batch=2))

    want = [run(ids) for ids in corpora]
    got: dict[int, list] = {i: [] for i in range(len(corpora))}
    errors = []

    def caller(i):
        try:
            for _ in range(5):
                got[i].append(run(corpora[i]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(corpora))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert sum(t.name == "cycleformer-walk" for t in threading.enumerate()) == 1
    assert got == {i: [want[i]] * 5 for i in range(len(corpora))}


def test_evaluate_never_holds_a_joined_copy_of_the_logits(monkeypatch):
    # Joining the halves' logits held every exit's logits twice at once (the
    # halves' and the joined copy): 2 * (n_exits + 1) * B * T * vocab float32
    # bytes at the canonical shape, 4.05 MB. Scoring each half where it was
    # walked stays well below that. The halves run one after the other here,
    # so the traced peak does not depend on how two threads' walks overlap.
    monkeypatch.setattr(model_mod, "run_halves", lambda fn, first, second: (fn(first), fn(second)))
    cfg = model_config(RunConfig(early_exit_heads=True))
    params = init_parameters(cfg, seed=39, dtype=np.float32)
    b = 8
    ids = corpus(b * cfg.t_max + 1, vocab=cfg.vocab, seed=40)
    joined = 2 * (cfg.n_exits + 1) * b * cfg.t_max * cfg.vocab * 4
    evaluate(params, cfg, ids, ExitPolicy(0.5), batch=b)  # warm caches and the helper up
    tracemalloc.start()
    try:
        evaluate(params, cfg, ids, ExitPolicy(0.5), batch=b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < joined, (peak, joined)


# ---------------------------------------------------------------------------
# budget layouts


def test_layouts_budget_six():
    assert enumerate_layouts(6, "V") == [(6, 1)]
    assert enumerate_layouts(6, "BC") == [(1, 6), (2, 3), (3, 2)]
    assert enumerate_layouts(6, "HTC") == [(3, 4), (4, 2)]
    assert enumerate_layouts(6, "ZTT") == [(3, 4), (4, 2)]


def test_layouts_edge_cases():
    assert enumerate_layouts(3, "HTC") == []  # 2 + (l-2)*n cannot hit 3 with n >= 2
    assert enumerate_layouts(4, "ZTT") == [(3, 2)]
    with pytest.raises(ConfigError):
        enumerate_layouts(0, "V")
    with pytest.raises(ConfigError):
        enumerate_layouts(6, "XYZ")


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40)
def test_layouts_satisfy_depth_identity(budget):
    for variant in ("V", "BC", "HTC", "ZTT"):
        for l, n in enumerate_layouts(budget, variant):
            if variant == "V":
                assert (l, n) == (budget, 1)
            elif variant == "BC":
                assert l * n == budget and n >= 2
            else:
                assert 2 + (l - 2) * n == budget and n >= 2 and l >= 3


def test_budget_sweep_runs_every_layout():
    base = RunConfig(
        variant="ZTT", d_model=16, n_heads=2, d_ff=32, vocab=59, t_max=8,
        steps=3, batch=2, lr=1e-3, seed=0,
    )
    ids = corpus(400)
    rows = budget_sweep(4, ["V", "BC", "ZTT"], ids, ids, base)
    got = {(r.variant, r.all_layers, r.loop_count) for r in rows}
    assert got == {("V", 4, 1), ("BC", 1, 4), ("BC", 2, 2), ("ZTT", 3, 2)}
    assert all(math.isfinite(r.eval_loss) and r.n_params > 0 for r in rows)
    table = format_sweep(rows)
    assert len(table.splitlines()) == len(rows) + 2
    assert "variant" in table.splitlines()[0]


def test_budget_sweep_checks_every_layout_before_training(monkeypatch):
    # Depth 3 fits V and BC but no head-tail layout: nothing may train first.
    import cycleformer.evaluate as evaluate_mod

    calls = []
    monkeypatch.setattr(evaluate_mod, "train", lambda *a, **kw: calls.append(a))
    base = RunConfig(d_model=16, n_heads=2, d_ff=32, t_max=8, batch=2, steps=1)
    with pytest.raises(ConfigError, match="variant HTC"):
        budget_sweep(3, ["V", "BC", "HTC"], corpus(200), corpus(200), base)
    assert calls == []


def test_budget_sweep_rejects_infeasible():
    base = RunConfig(d_model=16, n_heads=2, d_ff=32, vocab=59, t_max=8, steps=1, batch=2)
    with pytest.raises(ConfigError):
        budget_sweep(3, ["HTC"], corpus(200), corpus(200), base)
