"""Application schedules: pinned layouts, the depth identity, config validation."""
import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleformer
from cycleformer.errors import ConfigError
from cycleformer.model import ModelConfig, build_schedule, param_count


def cfg(variant, l, n, **kw):
    kw.setdefault("d_model", 16)
    kw.setdefault("n_heads", 2)
    kw.setdefault("d_ff", 32)
    return ModelConfig(variant=variant, all_layers=l, loop_count=n, **kw)


def layers(s):
    return [l for l, _ in s.applications]


def exit_points(s):
    """The application that completes each cycle, in cycle order."""
    return tuple(g[-1] for g in s.by_cycle.values())


def test_pinned_htc_schedule():
    c = cfg("HTC", 3, 4)
    s = build_schedule(c)
    assert layers(s) == [1, 2, 2, 2, 2, 3]
    assert len(s.applications) == 6
    assert c.cycled_layers == (2,)
    assert [s.applications[i] for i in exit_points(s)] == [(2, 1), (2, 2), (2, 3), (2, 4)]


def test_pinned_bc_schedule():
    s = build_schedule(cfg("BC", 3, 2))
    assert layers(s) == [1, 2, 3, 1, 2, 3]
    assert exit_points(s) == (2, 5)


@pytest.mark.parametrize(
    "variant,l,n,pre,by_cycle,post",
    [
        ("V", 4, 1, (0, 1, 2, 3), {}, ()),
        ("BC", 3, 2, (), {1: (0, 1, 2), 2: (3, 4, 5)}, ()),
        ("HTC", 4, 2, (0,), {1: (1, 2), 2: (3, 4)}, (5,)),
        ("ZTT", 5, 3, (0,), {1: (1, 2, 3), 2: (4, 5, 6), 3: (7, 8, 9)}, (10,)),
        ("ZTT", 3, 4, (0,), {1: (1,), 2: (2,), 3: (3,), 4: (4,)}, (5,)),
    ],
)
def test_pinned_cycle_groups(variant, l, n, pre, by_cycle, post):
    s = build_schedule(cfg(variant, l, n))
    assert s.pre == pre
    assert s.by_cycle == by_cycle
    assert s.post == post
    # the groups tile the schedule in order: head, cycles, tail
    assert [*pre, *(i for g in by_cycle.values() for i in g), *post] == list(
        range(len(s.applications))
    )


def test_vanilla_schedule_is_plain_order():
    c = cfg("V", 5, 1)
    s = build_schedule(c)
    assert layers(s) == [1, 2, 3, 4, 5]
    assert c.cycled_layers == ()
    # no cycles: the only exit is the full network's, after the last layer
    assert s.by_cycle == {} and s.pre[-1] == 4 and s.post == ()


def test_single_layer_single_cycle():
    s = build_schedule(cfg("V", 1, 1))
    assert layers(s) == [1]


def test_loop_count_one_reduces_to_vanilla_order():
    for variant, l in (("BC", 4), ("HTC", 4), ("ZTT", 4)):
        s = build_schedule(cfg(variant, l, 1))
        assert layers(s) == [1, 2, 3, 4], variant


def test_matched_budget_layouts_share_length():
    # One compute budget, four layouts.
    layouts = [cfg("V", 6, 1), cfg("BC", 3, 2), cfg("HTC", 3, 4), cfg("ZTT", 3, 4)]
    assert [len(build_schedule(c).applications) for c in layouts] == [6, 6, 6, 6]


def test_cycle_indices_partition_applications():
    c = cfg("ZTT", 5, 3)
    s = build_schedule(c)
    for layer in c.cycled_layers:
        cycles = [c for (l, c) in s.applications if l == layer]
        assert cycles == [1, 2, 3]
    for layer in (1, 5):
        assert [c for (l, c) in s.applications if l == layer] == [1]


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(["V", "BC", "HTC", "ZTT"]),
    st.integers(1, 8),
    st.integers(1, 6),
)
def test_depth_identity_holds_everywhere(variant, l, n):
    if variant == "V":
        n = 1
    if variant in ("HTC", "ZTT") and l < 3:
        l = 3
    c = cfg(variant, l, n)
    s = build_schedule(c)
    n_cycled = len(c.cycled_layers)
    assert len(s.applications) == l - n_cycled + n_cycled * n
    # Non-cycled layers appear exactly once, cycled ones exactly n times.
    for layer in range(1, l + 1):
        count = sum(1 for (x, _) in s.applications if x == layer)
        assert count == (n if layer in c.cycled_layers else 1)


def test_invalid_configs_raise():
    with pytest.raises(ConfigError):
        cfg("HTC", 2, 2)  # no middle block to cycle
    with pytest.raises(ConfigError):
        cfg("V", 3, 2)  # vanilla cannot loop
    with pytest.raises(ConfigError):
        cfg("ZTT", 0, 1)
    with pytest.raises(ConfigError):
        cfg("QT", 3, 2)  # unknown variant
    with pytest.raises(ConfigError):
        cfg("V", 3, 1, use_zero_token=True)  # nothing to attach the zero token to
    with pytest.raises(ConfigError):
        cfg("BC", 3, 2, share_middle=True)  # sharing is a head-tail notion
    with pytest.raises(ConfigError):
        cfg("ZTT", 4, 2, d_model=30, n_heads=4)  # heads must divide d_model
    for heads in (0, -4):  # d_model % 0 raises ZeroDivisionError; 16 % -4 == 0
        with pytest.raises(ConfigError):
            cfg("ZTT", 4, 2, n_heads=heads)


def test_auto_toggles_follow_variant():
    assert cfg("ZTT", 3, 4).use_gate and cfg("ZTT", 3, 4).use_zero_token
    assert not cfg("HTC", 3, 4).use_gate and not cfg("HTC", 3, 4).use_zero_token
    assert not cfg("BC", 3, 2).use_gate
    explicit = cfg("HTC", 3, 4, use_zero_token=True)
    assert explicit.use_zero_token and not explicit.use_gate


def test_param_count_pinned_delta():
    # d=16, one cycled layer, N=4, gates on all 3 records:
    # pool 4*16 = 64 plus gates 3*17 = 51, so ZTT is HTC + 115.
    htc = param_count(cfg("HTC", 3, 4))
    ztt = param_count(cfg("ZTT", 3, 4))
    assert ztt["total"] - htc["total"] == 115
    assert ztt["by_group"]["zero_token_pool"] == 64
    assert ztt["by_group"]["gates"] == 51


def test_param_count_bc_equals_vanilla():
    # Whole-stack cycling reuses the same L distinct layers: no new weights.
    v = param_count(cfg("V", 3, 1))
    bc = param_count(cfg("BC", 3, 2))
    assert v["total"] == bc["total"]


def test_param_count_share_middle_shrinks_blocks():
    untied = param_count(cfg("HTC", 5, 2))
    tied = param_count(cfg("HTC", 5, 2, share_middle=True))
    assert tied["by_group"]["blocks"] < untied["by_group"]["blocks"]
    per_block = untied["by_group"]["blocks"] // 5
    assert untied["by_group"]["blocks"] - tied["by_group"]["blocks"] == 2 * per_block


SCHEDULE_GROUPS = {"pre", "by_cycle", "post"}


def group_reads(path: Path) -> list[tuple[int, str]]:
    """(line, attribute) of every `.pre`, `.by_cycle` or `.post` in a module."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in SCHEDULE_GROUPS]


def test_only_model_walks_the_schedule():
    """The schedule's head, cycles and tail are read in `model.py` alone (its
    one walker, `_walk`), so a change to the walk is made in one place."""
    package = Path(cycleformer.__file__).parent
    reads = {path.name: group_reads(path) for path in sorted(package.glob("*.py"))}
    assert {attr for _, attr in reads.pop("model.py")} == SCHEDULE_GROUPS  # the scan sees the walker
    assert {name: found for name, found in reads.items() if found} == {}
