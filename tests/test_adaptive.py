"""Adaptive-depth decoding against a batch-forward oracle.

The cache invariant under test: because positions are deepened lazily in
position order, every middle-cycle K/V entry equals the value a full batch
forward would produce, so a batch pass plus a per-position tail
(`exit_oracle.batch_oracle`) predicts every decode step.
"""
import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleformer.adaptive import (
    DecodeCache,
    ExitPolicy,
    decode_step,
    generate,
)
from cycleformer.autodiff import softmax_np
from cycleformer.checkpoint import load_model
from cycleformer.data import BOS_ID, ByteVocabulary
from cycleformer.errors import ConfigError, ShapeError, UsageError
from cycleformer.evaluate import evaluate
import cycleformer
from cycleformer import model
from cycleformer.model import ModelConfig, build_schedule, forward, init_parameters

from exit_oracle import batch_oracle, exit_cycle, pick_mixed_threshold

PINNED_TRACE = [0.21, 0.47, 0.54, 0.65]


def make_model(variant="ZTT", l=4, n=3, d=32, heads=2, t_max=16, seed=0, vocab=41, **kw):
    cfg = ModelConfig(
        variant=variant, all_layers=l, loop_count=n, d_model=d, n_heads=heads,
        d_ff=2 * d, vocab=vocab, t_max=t_max, **kw,
    )
    params = init_parameters(cfg, seed=seed, dtype=np.float64)
    return cfg, params


def decode_logits(params, cfg, ids, policy=None):
    cache = DecodeCache(params, cfg)
    rows = [decode_step(cache, int(tok), policy)[0] for tok in ids]
    return np.stack(rows), cache


# ---------------------------------------------------------------------------
# exit rule


def test_pinned_trace_exit_cycles():
    assert exit_cycle(PINNED_TRACE, 0.2) == 1
    assert exit_cycle(PINNED_TRACE, 0.5) == 3
    assert exit_cycle(PINNED_TRACE, 0.7) is None
    assert exit_cycle(PINNED_TRACE, 1.0) is None


def test_threshold_zero_exits_immediately():
    assert exit_cycle(PINNED_TRACE, 0.0) == 1
    assert exit_cycle([0.0], ExitPolicy(threshold=0.0).threshold) == 1


def test_exit_cycle_consumes_prefixes():
    threshold = ExitPolicy(threshold=0.5).threshold
    assert exit_cycle(PINNED_TRACE[:1], threshold) is None
    assert exit_cycle(PINNED_TRACE[:2], threshold) is None
    assert exit_cycle(PINNED_TRACE[:3], threshold) == 3
    assert exit_cycle(PINNED_TRACE, threshold) == 3


def test_fixed_policy_never_exits():
    assert not ExitPolicy().adaptive
    assert ExitPolicy().threshold is None


def test_policy_validation():
    for bad in (-0.1, math.nan):
        with pytest.raises(ConfigError):
            ExitPolicy(threshold=bad)


@given(st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=1, max_size=8))
def test_softmax_range_never_crosses_one(trace):
    assert exit_cycle(trace, 1.0) is None


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_exit_cycle_monotone_in_threshold(trace, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    late = exit_cycle(trace, hi)
    early = exit_cycle(trace, lo)
    if late is not None:
        assert early is not None and early <= late
    assert exit_cycle(trace, lo) == early  # pure: same inputs, same answer


# ---------------------------------------------------------------------------
# fixed-depth incremental decode equals the batch forward


FIXED_DECODE_CASES = {
    "ZTT-4-3": ("ZTT", 4, 3, {}),
    "ZTT-3-4": ("ZTT", 3, 4, {}),
    "HTC-4-2": ("HTC", 4, 2, {}),
    "BC-3-2": ("BC", 3, 2, {}),
    "V-3-1": ("V", 3, 1, {}),
    # zero-token keys on every application of a variant without head and tail
    "BC-3-2-zero-token": ("BC", 3, 2, {"use_zero_token": True}),
    # a head-tail variant that cannot exit early
    "ZTT-4-3-plain": ("ZTT", 4, 3, {"use_zero_token": False, "use_gate": False}),
}


@pytest.mark.parametrize(
    "variant,l,n,kw", FIXED_DECODE_CASES.values(), ids=FIXED_DECODE_CASES.keys()
)
def test_fixed_decode_matches_batch_forward(variant, l, n, kw):
    cfg, params = make_model(variant, l, n, seed=7, **kw)
    rng = np.random.default_rng(11)
    for trial in range(6):
        t = int(rng.integers(1, cfg.t_max + 1))
        ids = rng.integers(0, cfg.vocab, size=t)
        want = forward(ids, params, cfg).logits.data
        got, cache = decode_logits(params, cfg, ids)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
        assert cache.cycles_used == [n if variant != "V" else 1] * t


FIXED = Path(__file__).resolve().parent.parent / "perfbench" / "fixed"


def test_full_decode_matches_forward_on_fixed_checkpoint():
    # The benchmark's decode oracle (tolerance 1e-5) over every pool prompt of
    # the committed float32 checkpoint, so a numerics slip in the decode
    # kernels fails here rather than in a benchmark run.
    loaded = load_model(str(FIXED / "ztt_canonical.ckpt"))
    cfg, params = loaded.config, loaded.params
    meta = json.loads((FIXED / "ztt_canonical.json").read_text())
    valid = ByteVocabulary().encode((FIXED / "ztt_canonical_valid.bin").read_bytes())
    seqs = np.stack([
        np.concatenate([valid[start : start + length], ref])[: cfg.t_max]
        for (start, length), ref in zip(meta["prompt_pool"], meta["reference_tokens"]["adaptive"])
    ])
    assert params.dtype() == np.float32 and seqs.shape == (64, cfg.t_max)
    want = forward(seqs, params, cfg).logits.data
    got = np.stack([decode_logits(params, cfg, ids)[0] for ids in seqs])
    assert float(np.abs(got - want).max()) <= 1e-5


@pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
def test_adaptive_forward_and_evaluate_score_what_decode_emits(threshold):
    # Teacher-forced adaptive decode over the first two validation windows of
    # the committed float32 checkpoint: every threshold splits the positions
    # over all three cycles. Measured at these thresholds: decode's logits sit
    # at most 3.15e-5 from forward's adaptive logits (the same maximum over
    # the first 8 windows) and the two mean NLLs at most 2.0e-7 apart; the
    # gates below hold about 3x and 5x that.
    loaded = load_model(str(FIXED / "ztt_canonical.ckpt"))
    cfg, params = loaded.config, loaded.params
    valid = ByteVocabulary().encode((FIXED / "ztt_canonical_valid.bin").read_bytes())
    t = cfg.t_max
    ids = valid[: 2 * t + 1]
    windows, targets = ids[:-1].reshape(2, t), ids[1:].reshape(2, t)
    res = forward(windows, params, cfg, exit_threshold=threshold)
    policy = ExitPolicy(threshold=threshold)
    decoded = [decode_logits(params, cfg, w, policy) for w in windows]
    for (logits, cache), want_cycles, want in zip(decoded, res.exit_cycle, res.adaptive_logits.data):
        assert cache.cycles_used == want_cycles.tolist()
        assert float(np.abs(logits - want).max()) <= 1e-4
    assert len(set(res.exit_cycle.ravel().tolist())) == cfg.loop_count

    logp = [np.log(softmax_np(lg.astype(np.float64), axis=-1)) for lg, _ in decoded]
    decode_nll = -np.mean([np.take_along_axis(lp, tg[:, None], -1) for lp, tg in zip(logp, targets)])
    report = evaluate(params, cfg, ids, policy)
    assert report.adaptive.loss == pytest.approx(decode_nll, abs=1e-6)


def test_decode_rejects_overfull_context():
    cfg, params = make_model(t_max=4)
    cache = DecodeCache(params, cfg)
    for tok in range(4):
        decode_step(cache, tok)
    with pytest.raises(UsageError):
        decode_step(cache, 0)


def test_decode_rejects_an_incomplete_cache_prefix():
    cfg, params = make_model()
    cache = DecodeCache(params, cfg)
    decode_step(cache, 1)
    cache.n_pos = 2  # position 1 was never decoded: no slot holds its row
    with pytest.raises(UsageError, match="cache prefix incomplete"):
        decode_step(cache, 2)


@pytest.mark.parametrize("variant,l,n", [("V", 3, 1), ("BC", 3, 2), ("HTC", 4, 2)])
def test_adaptive_needs_zero_token_head_tail(variant, l, n):
    cfg, params = make_model(variant, l, n)
    cache = DecodeCache(params, cfg)
    with pytest.raises(ConfigError):
        decode_step(cache, 1, ExitPolicy(threshold=0.5))


# ---------------------------------------------------------------------------
# adaptive decode against the batch oracle


def test_adaptive_decode_matches_batch_oracle():
    cfg, params = make_model("ZTT", 4, 3, seed=3)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, cfg.vocab, size=12)
    _, _, traces = batch_oracle(params, cfg, ids, threshold=2.0)
    thr = pick_mixed_threshold(traces)
    depths, want_logits, _ = batch_oracle(params, cfg, ids, thr)
    assert len(set(depths)) >= 2  # exercises suspend + lazy deepening

    policy = ExitPolicy(threshold=thr)
    got, cache = decode_logits(params, cfg, ids, policy)
    assert cache.cycles_used == depths
    np.testing.assert_allclose(got, want_logits, rtol=1e-9, atol=1e-9)


def test_adaptive_decode_three_layer_single_middle():
    cfg, params = make_model("ZTT", 3, 4, seed=9)
    rng = np.random.default_rng(13)
    ids = rng.integers(0, cfg.vocab, size=10)
    _, _, traces = batch_oracle(params, cfg, ids, threshold=2.0)
    thr = pick_mixed_threshold(traces)
    depths, want_logits, _ = batch_oracle(params, cfg, ids, thr)
    policy = ExitPolicy(threshold=thr)
    got, cache = decode_logits(params, cfg, ids, policy)
    assert cache.cycles_used == depths
    np.testing.assert_allclose(got, want_logits, rtol=1e-9, atol=1e-9)


def test_threshold_one_runs_full_depth():
    cfg, params = make_model("ZTT", 4, 2, seed=1)
    ids = np.arange(1, 9) % cfg.vocab
    full, _ = decode_logits(params, cfg, ids)
    capped, cache = decode_logits(params, cfg, ids, ExitPolicy(threshold=1.0))
    np.testing.assert_array_equal(full, capped)
    assert cache.cycles_used == [cfg.loop_count] * len(ids)


def test_depth_bookkeeping_and_slot_fill():
    cfg, params = make_model("ZTT", 4, 3, seed=3)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, cfg.vocab, size=12)
    _, _, traces = batch_oracle(params, cfg, ids, threshold=2.0)
    thr = pick_mixed_threshold(traces)
    _, cache = decode_logits(params, cfg, ids, ExitPolicy(threshold=thr))
    depth = cache.depth[: cache.n_pos]
    for pos, used in enumerate(cache.cycles_used):
        assert depth[pos] >= used  # later positions may deepen, never shallow
    for cycle, apps in cache.schedule.by_cycle.items():
        expect = int(np.sum(depth >= cycle))
        for s in apps:
            assert cache.filled[s] == expect


@pytest.mark.parametrize("threshold", [None, 1.0, "mixed"])
def test_block_calls_per_decode_step(monkeypatch, threshold):
    """Each step runs the head, `used` cycles, the tail once and the LM head
    once, plus one cycle per position-cycle it deepened: the count behind the
    benchmark's `adaptive.deepen_cycles`."""
    cfg, params = make_model("ZTT", 4, 3, seed=3)
    ids = np.random.default_rng(5).integers(0, cfg.vocab, size=12)
    if threshold == "mixed":
        threshold = pick_mixed_threshold(batch_oracle(params, cfg, ids, threshold=2.0)[2])
    calls = {}
    for name in ("attention_with_zero_token", "gated_ffn", "_lm_logits"):
        def counted(*args, _inner=getattr(model, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(model, name, counted)
    schedule = build_schedule(cfg)
    k = len(schedule.by_cycle[1])
    cache = DecodeCache(params, cfg)
    deepened = []
    for tok in ids:
        t = cache.n_pos
        before = int(cache.depth[:t].sum())
        calls.clear()
        _, used = decode_step(cache, int(tok), ExitPolicy(threshold))
        deepened.append(int(cache.depth[:t].sum()) - before)
        blocks = len(schedule.pre) + k * used + len(schedule.post) + k * deepened[-1]
        assert calls == {"attention_with_zero_token": blocks, "gated_ffn": blocks, "_lm_logits": 1}
    if threshold in (None, 1.0):
        assert cache.cycles_used == [cfg.loop_count] * len(ids) and sum(deepened) == 0
    else:
        assert len(set(cache.cycles_used)) >= 2 and sum(deepened) > 0


def test_tail_entries_never_revised():
    cfg, params = make_model("ZTT", 4, 3, seed=3)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, cfg.vocab, size=12)
    _, _, traces = batch_oracle(params, cfg, ids[:6], threshold=2.0)
    thr = pick_mixed_threshold(traces)
    cache = DecodeCache(params, cfg)
    for tok in ids[:6]:
        decode_step(cache, int(tok), ExitPolicy(threshold=thr))
    tail = cache.schedule.post[0]
    k_before, v_before = cache.k[tail, :6].copy(), cache.v[tail, :6].copy()
    for tok in ids[6:]:
        decode_step(cache, int(tok), ExitPolicy(threshold=thr))
    np.testing.assert_array_equal(cache.k[tail, :6], k_before)
    np.testing.assert_array_equal(cache.v[tail, :6], v_before)


# ---------------------------------------------------------------------------
# generation


def test_generate_zero_tokens_echoes_prompt():
    cfg, params = make_model()
    prompt = [3, 1, 4, 1, 5]
    res = generate(params, cfg, prompt, max_new_tokens=0)
    np.testing.assert_array_equal(res.ids, prompt)
    assert res.new_ids.size == 0
    assert len(res.cycles_used) == len(prompt)


def test_generate_empty_prompt_starts_at_bos():
    cfg, params = make_model(vocab=259)
    res = generate(params, cfg, [], max_new_tokens=2)
    assert res.ids[0] == BOS_ID


def test_generate_greedy_matches_argmax_chain():
    cfg, params = make_model(seed=21)
    prompt = [5, 9, 2]
    res = generate(params, cfg, prompt, max_new_tokens=4)
    ids = list(prompt)
    for _ in range(4):
        logits = forward(np.array(ids), params, cfg).logits.data
        ids.append(int(np.argmax(logits[-1])))
    np.testing.assert_array_equal(res.ids, ids)


def test_generate_is_deterministic_per_seed():
    cfg, params = make_model(seed=2)
    a = generate(params, cfg, [1, 2], 5, temperature=0.9, seed=17)
    b = generate(params, cfg, [1, 2], 5, temperature=0.9, seed=17)
    np.testing.assert_array_equal(a.ids, b.ids)
    assert a.cycles_used == b.cycles_used


def test_generate_at_a_tiny_temperature_samples_the_argmax():
    # logits / 1e-320 overflows to inf; shifted by the max first it does not.
    cfg, params = make_model(seed=2)
    greedy = generate(params, cfg, [1, 2], 5)
    tiny = generate(params, cfg, [1, 2], 5, temperature=1e-320, seed=17)
    np.testing.assert_array_equal(tiny.ids, greedy.ids)


def test_generate_rejects_non_integer_prompt_ids():
    # as forward and decode_step do: a float prompt is not silently truncated
    cfg, params = make_model()
    with pytest.raises(ShapeError):
        generate(params, cfg, [1.7, 2.2], 2)


def test_generate_respects_capacity():
    cfg, params = make_model(t_max=8)
    with pytest.raises(UsageError):
        generate(params, cfg, [1, 2, 3, 4], max_new_tokens=5)


def test_generate_adaptive_reports_cycles_for_every_token():
    cfg, params = make_model("ZTT", 4, 3, seed=3)
    res = generate(params, cfg, [7, 7, 7], 3, policy=ExitPolicy(threshold=0.0))
    assert len(res.cycles_used) == 6
    assert all(c == 1 for c in res.cycles_used)  # threshold 0 exits at cycle 1


# ---------------------------------------------------------------------------
# one writer of decode state


CACHE_FIELDS = {"n_pos", "cycles_used", "h_mid", "depth", "filled", "k", "v"}


def _written_field(target) -> list[str]:
    """The DecodeCache fields an assignment target writes: `x.f`, `x.f[...]`
    (at any depth) and each element of a tuple or list target. A write
    through `self` is the writing class's own field (AdamW's `self.v` is its
    second moment), so it is not counted."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [f for elt in target.elts for f in _written_field(elt)]
    if isinstance(target, ast.Starred):
        return _written_field(target.value)
    while isinstance(target, ast.Subscript):
        target = target.value
    if (isinstance(target, ast.Attribute) and target.attr in CACHE_FIELDS
            and not (isinstance(target.value, ast.Name) and target.value.id == "self")):
        return [target.attr]
    return []


def cache_writes(source: str) -> list[tuple[int, str]]:
    """(line, field) of every write of a DecodeCache field in a module's
    source: assignment, augmented assignment, item assignment and
    `.cycles_used.append`, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "append" and _written_field(node.func.value) == ["cycles_used"]):
            targets = [node.func.value]
        else:
            continue
        found += [(node.lineno, f) for t in targets for f in _written_field(t)]
    return sorted(found)


def test_cache_write_scan_counts_every_form():
    source = ("c.n_pos += 1\nc.cycles_used.append(2)\nc.h_mid[p], c.depth[p] = h, n\n"
              "c.filled[i] = 3\nc.k[0][1] = 0\nc.v: int = 1\nself.v[n] = 0\ny = c.k[0]\n")
    assert cache_writes(source) == [(1, "n_pos"), (2, "cycles_used"), (3, "depth"), (3, "h_mid"),
                                    (4, "filled"), (5, "k"), (6, "v")]


def test_only_model_writes_decode_state():
    """`model._walk` (with `DecodeCache` itself) is the one writer of decode
    state, so a change to what decode keeps is made in one place."""
    package = Path(cycleformer.__file__).parent
    writes = {path.name: cache_writes(path.read_text()) for path in sorted(package.glob("*.py"))}
    walker = writes.pop("model.py")
    assert {name: found for name, found in writes.items() if found} == {}
    assert {f for _, f in walker} == {"n_pos", "cycles_used", "h_mid", "depth"}  # the scan sees the walker
