"""scripts/decode_pairs.py: the claim and no-worse verdicts it writes follow
the rules it states, on per-round times made up for the test."""
import os
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
if os.fspath(SCRIPTS) not in sys.path:
    sys.path.insert(0, os.fspath(SCRIPTS))
import decode_pairs  # noqa: E402


def test_claim_needs_nine_in_ten_wins_and_a_gain_above_the_parent_iqr():
    parent = [1.0 + 0.01 * i for i in range(10)]  # IQR 0.045
    faster = [p - 0.1 for p in parent]
    got = decode_pairs.compare_times(parent, faster)
    assert got["change_wins"] == 10 and got["claim_holds"] and got["no_worse"]
    assert got["parent_iqr"] == pytest.approx(0.045)
    assert got["ratio_median"] == pytest.approx((0.94 / 1.04 + 0.95 / 1.05) / 2)  # rounds 5 and 6
    eight = faster[:8] + parent[8:]  # ties are not wins
    got = decode_pairs.compare_times(parent, eight)
    assert got["change_wins"] == 8 and not got["claim_holds"]
    slight = [p - 0.04 for p in parent]  # wins every round, gains less than the IQR
    got = decode_pairs.compare_times(parent, slight)
    assert got["change_wins"] == 10 and not got["claim_holds"] and got["no_worse"]


def test_no_worse_allows_the_parent_iqr_and_no_more():
    parent = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, IQR 0.045
    assert decode_pairs.compare_times(parent, [1.085] * 10)["no_worse"]
    got = decode_pairs.compare_times(parent, [1.095] * 10)
    assert not got["no_worse"] and got["change_wins"] == 0
    assert got["ratio_median"] == pytest.approx(1.095 / 1.045, rel=0.01)


def _run(ms, ids=((1, 2),), deepened=0):
    return {"prompt_ms": ms, "gen_ms": ms, "ids": [list(i) for i in ids], "deepened": deepened}


def test_summary_reports_ids_and_deepening_per_policy():
    rounds = [{"full": {"parent": _run(1.0), "change": _run(0.9)},
               "0.5": {"parent": _run(1.1, deepened=7), "change": _run(1.0, deepened=7)}}
              for _ in range(3)]
    got = decode_pairs.summarize(rounds)
    assert set(got) == {"full", "0.5"}
    assert got["0.5"]["deepened"] == {"parent": 7, "change": 7}
    assert got["full"]["ids_identical"] and got["0.5"]["ids_identical"]
    assert got["full"]["gen_ms"]["change_wins"] == 3 and got["full"]["prompt_ms"]["rounds"] == 3
    rounds[2]["0.5"]["change"]["ids"] = [[1, 3]]  # one round of one policy differs
    got = decode_pairs.summarize(rounds)
    assert got["full"]["ids_identical"] and not got["0.5"]["ids_identical"]
