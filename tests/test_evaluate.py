"""Evaluation reports, adaptive per-position scoring, and layout enumeration."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleformer.adaptive import ExitPolicy
from cycleformer.autodiff import softmax_np
from cycleformer.config import RunConfig
from cycleformer.errors import ConfigError, DataError
from cycleformer.evaluate import (
    EvalReport,
    budget_sweep,
    enumerate_layouts,
    evaluate,
    format_sweep,
)
from cycleformer.model import ModelConfig, forward, init_parameters

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
    # Ten windows at batch 4: groups of 4, 4 and 2 windows, so the partial
    # last group counts half as much as each full one.
    cfg, params = make_model()
    t, n_win, batch = cfg.t_max, 10, 4
    ids = corpus(n_win * t + 1, seed=5)
    report = evaluate(params, cfg, ids, batch=batch)
    groups = [
        np.stack([ids[w * t : w * t + t] for w in range(s, min(s + batch, n_win))])
        for s in range(0, n_win, batch)
    ]
    toks = [g.size for g in groups]
    assert toks == [4 * t, 4 * t, 2 * t] and report.n_tokens == sum(toks)
    results = [forward(g, params, cfg) for g in groups]
    assert [c.cycle for c in report.cycles] == [1, 2, 3]
    for stat in report.cycles:
        for name in ("zero_attn", "gate"):
            per_group = [np.mean(getattr(r, name)[stat.cycle]) for r in results]
            want = np.dot(per_group, toks) / sum(toks)
            assert getattr(stat, name) == pytest.approx(want, rel=1e-12, abs=0.0)
            # The weighting matters: an unweighted mean of the groups differs.
            assert abs(want - np.mean(per_group)) > 1e-9


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
