"""scripts/bench_pairs.py: the claim and no-regression verdicts it writes
follow the rules it states, on paired values made up for the test."""
import argparse
import os
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
if os.fspath(SCRIPTS) not in sys.path:
    sys.path.insert(0, os.fspath(SCRIPTS))
import bench_pairs  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "tok_s", "unit": "tok/s", "better": "higher", "bound": 0.25},
        {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}


def test_seeds_are_an_inclusive_range():
    assert bench_pairs.parse_seeds("21-30") == list(range(21, 31))
    assert bench_pairs.parse_seeds("7") == [7]
    for bad in ("3-1", "a-b", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_seeds(bad)


def test_quartiles_are_inclusive_and_take_one_run():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def test_claim_needs_nine_in_ten_wins_and_a_gain_above_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]  # IQR 4.5
    ahead = [p + 10.0 for p in parent]
    got = bench_pairs.compare(parent, ahead, "higher", 0.25)
    assert got["change_wins"] == 10 and got["claim_holds"] and got["within_bound"]
    eight = ahead[:8] + parent[8:]  # ties are not wins
    assert bench_pairs.compare(parent, eight, "higher", 0.25)["change_wins"] == 8
    assert not bench_pairs.compare(parent, eight, "higher", 0.25)["claim_holds"]
    small = [p + 4.0 for p in parent]  # wins every pair, gains less than the IQR
    got = bench_pairs.compare(parent, small, "higher", 0.25)
    assert got["change_wins"] == 10 and not got["claim_holds"]
    # Lower is better: the same numbers read the other way round.
    got = bench_pairs.compare(ahead, parent, "lower", 0.25)
    assert got["change_wins"] == 10 and got["claim_holds"]


def test_bound_is_a_fraction_of_the_parent_median():
    parent = [10.0, 10.0, 10.0]
    assert bench_pairs.compare(parent, [12.4] * 3, "lower", 0.25)["within_bound"]
    got = bench_pairs.compare(parent, [12.6] * 3, "lower", 0.25)
    assert got["worse_by"] == pytest.approx(0.26) and not got["within_bound"]
    assert not bench_pairs.compare(parent, [7.4] * 3, "higher", 0.25)["within_bound"]


def _run(seed, tok_s, p50, failed=0):
    return {"metrics": {"tok_s": {"value": tok_s}, "step_ms_p50": {"value": p50}},
            "attempted": 10, "failed": failed, "manifest": {"seed": seed}}


def test_no_regression_needs_every_bound_and_no_more_failures():
    runs = [{"seed": s, "first": "parent", "parent": _run(s, 100.0, 50.0), "change": _run(s, 110.0, 45.0)}
            for s in (1, 2, 3)]
    got = bench_pairs.summarize(SPEC, runs)
    assert got["no_regression"] and got["seeds"] == [1, 2, 3]
    assert got["metrics"]["tok_s"]["unit"] == "tok/s"
    assert got["manifest"] == {"parent": {"seed": 1}, "change": {"seed": 1}}
    assert got["runs"][0]["change"] == {"metrics": {"tok_s": 110.0, "step_ms_p50": 45.0},
                                        "attempted": 10, "failed": 0}
    runs[1]["change"]["failed"] = 1
    assert not bench_pairs.summarize(SPEC, runs)["no_regression"]
    runs[1]["change"]["failed"] = 0
    for r in runs:
        r["change"]["metrics"]["step_ms_p50"]["value"] = 70.0
    assert not bench_pairs.summarize(SPEC, runs)["no_regression"]


def _set(worse_by, bound=0.25):
    return {"metrics": {"step_ms_p90": {"worse_by": worse_by, "bound": bound}}}


def test_sets_that_spread_wider_than_the_margin_leave_a_metric_unresolved():
    # Three sets of one change read +23%, +9.9% and +5.7% against a 25% bound:
    # each is within it, but the spread (17.3 points) exceeds the 2-point margin.
    got = bench_pairs.across_sets([_set(0.23), _set(0.099), _set(0.057)])["step_ms_p90"]
    assert got["worse_by"] == [0.23, 0.099, 0.057]
    assert got["spread"] == pytest.approx(0.173) and got["margin"] == pytest.approx(0.02)
    assert not got["resolved"]
    got = bench_pairs.across_sets([_set(-0.02), _set(0.03)])["step_ms_p90"]
    assert got["resolved"]  # spread 5 points, margin 22
    assert not bench_pairs.across_sets([_set(0.3)])["step_ms_p90"]["resolved"]  # over the bound
