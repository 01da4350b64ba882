"""The summary arithmetic of tools/compare.py, on fixed inputs; the script's
benchmark runs are not made here."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "compare.py"
SPEC = importlib.util.spec_from_file_location("compare", PATH)
compare = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare)

# sorted: 97 98 99 100 100 100 100 101 102 103
BASE = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]


def test_quartiles_use_the_inclusive_method():
    assert compare.quartiles(BASE) == (99.25, 100, 100.75)
    assert compare.quartiles([1, 2]) == (1.25, 1.5, 1.75)


def test_a_gain_needs_nine_wins_in_ten_and_a_move_past_the_base_iqr():
    head = [b + 8 for b in BASE]
    head[0] = 99  # the one pair the change loses
    row = compare.summarize(BASE, head, "higher", 0.25)
    assert row == {
        "base_median": 100,
        "head_median": 108,
        "base_iqr": 1.5,
        "change": pytest.approx(0.08),
        "wins": 9,
        "pairs": 10,
        "verdict": "gain",
    }
    head[1] = 101  # now it loses two pairs
    assert compare.summarize(BASE, head, "higher", 0.25)["wins"] == 8
    assert compare.summarize(BASE, head, "higher", 0.25)["verdict"] == "within bound"
    # ahead in every pair, but by 1 against an IQR of 1.5
    row = compare.summarize(BASE, [b + 1 for b in BASE], "higher", 0.25)
    assert (row["wins"], row["verdict"]) == (10, "within bound")
    # a tie is not a win
    assert compare.summarize(BASE, BASE, "higher", 0.25)["wins"] == 0
    # nor is a gain read from fewer than ten pairs
    assert compare.summarize([100, 101], [110, 111], "higher", 0.25)["verdict"] == "within bound"


def test_lower_is_better_flips_wins_and_the_bound():
    faster = [b * 0.9 for b in BASE]
    row = compare.summarize(BASE, faster, "lower", 0.25)
    assert (row["wins"], row["change"], row["verdict"]) == (10, pytest.approx(-0.1), "gain")
    row = compare.summarize(BASE, [b * 1.3 for b in BASE], "lower", 0.25)
    assert (row["wins"], row["verdict"]) == (0, "worse beyond bound")
    row = compare.summarize(BASE, [b * 1.2 for b in BASE], "lower", 0.25)
    assert row["verdict"] == "within bound"
    # for a higher-is-better metric, a fall past the bound is the regression
    row = compare.summarize(BASE, [b * 0.7 for b in BASE], "higher", 0.25)
    assert row["verdict"] == "worse beyond bound"


def test_a_base_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    wide = [60, 80, 100, 120, 140, 70, 90, 110, 130, 100]  # IQR 35 against a bound of 10
    row = compare.summarize(wide, [w + 5 for w in wide], "higher", 0.1)
    assert (row["base_iqr"], row["wins"], row["verdict"]) == (35, 10, "unresolved")
    # unless every head run beats every base run
    row = compare.summarize(wide, [w + 100 for w in wide], "higher", 0.1)
    assert row["verdict"] == "gain"
    row = compare.summarize(wide, [w / 4 for w in wide], "lower", 0.1)
    assert row["verdict"] == "gain"


def run(correct=True, failed=0):
    return {"correct": correct, "failed": failed}


def test_runs_are_distrusted_on_a_wrong_answer_or_a_failed_count_that_moved():
    assert compare.distrust({"base": [run(), run()], "head": [run(), run()]}) is None
    # failed depends on the seed, so it may differ between pairs but not within one
    paired = {"base": [run(failed=3), run(failed=5)], "head": [run(failed=3), run(failed=5)]}
    assert compare.distrust(paired) is None
    moved = {"base": [run(failed=3), run(failed=5)], "head": [run(failed=3), run(failed=4)]}
    assert compare.distrust(moved) == '"failed" differs on one seed: base 5, head 4'
    wrong = {"base": [run(), run()], "head": [run(), run(correct=False)]}
    assert compare.distrust(wrong) == 'a head run printed "correct": false'
