"""tools/ab.py, the A/B harness behind every speed claim: its per-metric
summary (`compare`) on synthetic runs, with values chosen so that a
change ratio at the bound is exact in binary floating point."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}


def runs(name, xs):
    """Runs of perfbench/run.py as `bench` returns them, one per value."""
    return [{"result": {"correct": True, "metrics": {name: {"value": x}}}}
            for x in xs]


def summary(metric, parent, change):
    name = metric["name"]
    return ab.compare(runs(name, parent), runs(name, change), metric)


def test_quartiles_of_ten_values_are_inclusive():
    assert ab.quartiles([10, 1, 9, 2, 8, 3, 7, 4, 6, 5]) == [3.25, 5.5, 7.75]


@pytest.mark.parametrize("metric", [LOWER, HIGHER])
def test_ties_count_for_neither_side(metric):
    same = [1.0, 2.0, 3.0, 4.0]
    assert summary(metric, same, same)["wins"] == 0
    # one win, one loss and two ties, whichever way the metric is better
    better, worse = (0.5, 4.5) if metric is LOWER else (1.5, 3.5)
    assert summary(metric, same, [better, 2.0, 3.0, worse])["wins"] == 1


@pytest.mark.parametrize("metric, at_bound, past_bound", [
    # lower is better: 5/4 - 1 = +0.25 is the bound, 5.004/4 - 1 = +0.251
    (LOWER, 5.0, 5.004),
    # higher is better: 3/4 - 1 = -0.25 is the bound, 2.996/4 - 1 = -0.251
    (HIGHER, 3.0, 2.996),
])
def test_within_bound_holds_at_the_bound_and_not_past_it(metric, at_bound, past_bound):
    parent = [4.0] * 4
    at = summary(metric, parent, [at_bound] * 4)
    assert abs(at["median_change_ratio"]) == 0.25 and at["within_bound"]
    assert not summary(metric, parent, [past_bound] * 4)["within_bound"]
    # a change for the better is within any bound
    gain = 3.0 if metric is LOWER else 5.0
    assert summary(metric, parent, [gain] * 4)["within_bound"]


def test_parent_iqr_and_median_gap():
    parent = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    out = summary(LOWER, parent, [x + 2 for x in parent])
    assert out["parent"] == [3.25, 5.5, 7.75]
    assert out["change"] == [5.25, 7.5, 9.75]
    assert out["parent_iqr"] == 4.5
    assert out["median_gap"] == 2.0
    assert out["median_change_ratio"] == round(7.5 / 5.5 - 1, 4)
    assert out["wins"] == 0 and not out["within_bound"]
    assert out["parent_runs"] == parent and out["change_runs"] == [x + 2 for x in parent]
