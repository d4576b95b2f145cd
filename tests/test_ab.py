"""tools/ab.py, the A/B harness behind every speed claim: its per-metric
summary (`compare`) on synthetic runs, with values chosen so that a
change ratio at the bound is exact in binary floating point, and its
`--claim` through `main` with the trees and the benchmark runs stubbed."""

import importlib.util
import json
import os
import shutil
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


def stub_trees(monkeypatch, bench):
    """Run ab.main on trees holding only BENCHMARK.json, with `bench` in
    place of perfbench/run.py and no git; returns the runs asked for."""
    asked = []

    def materialise(root, rev, dest):
        os.makedirs(dest)
        shutil.copy(ROOT / "BENCHMARK.json", dest)
        return f"stub of {rev}"

    def stub_bench(tree, workload, seed, trace):
        asked.append((os.path.basename(tree), workload, seed, trace))
        return {"workload": workload, "seed": seed, "trace": trace,
                "elapsed_s": 0.0, **bench(os.path.basename(tree), workload)}

    monkeypatch.setattr(ab, "git", lambda *args, cwd, binary=False: str(ROOT))
    monkeypatch.setattr(ab, "materialise", materialise)
    monkeypatch.setattr(ab, "bench", stub_bench)
    return asked


def failing(side, workload):
    return {"exit": 1, "stderr": "Traceback: boom"}


def test_a_claim_on_failing_runs_is_written_and_does_not_hold(tmp_path, monkeypatch):
    """Every run fails: the BENCH file is still written, the workload has no
    metrics, and the claim does not hold and says why (it raised KeyError
    'metrics' after the whole A/B)."""
    asked = stub_trees(monkeypatch, failing)
    out = tmp_path / "BENCH.json"
    code = ab.main(["HEAD", "--out", str(out), "--pairs", "2",
                    "--workload", "main_theorem", "--claim", "main_theorem:wall_s"])
    assert code == 1
    # 2 pairs, a held-out and a traced run per side
    assert len(asked) == 2 * 2 + 2 + 2
    report = json.loads(out.read_text())
    assert "metrics" not in report["workloads"]["main_theorem"]
    claim = report["claim"]
    assert claim["holds"] is False and "no metrics" in claim["reason"]
    assert (claim["workload"], claim["metric"]) == ("main_theorem", "wall_s")


@pytest.mark.parametrize("claim, workloads", [
    ("main_theorem:wal", []),
    ("main_theorem", []),
    ("main_theorem:wall_s:x", []),
    ("nope:wall_s", []),
    ("main_theorem:wall_s", ["duality_serre"]),
    # a per-layer metric is not an end-to-end one
    ("main_theorem:sampling.draw.self_s", []),
])
def test_a_bad_claim_is_refused_before_the_first_run(claim, workloads, tmp_path,
                                                    monkeypatch, capsys):
    asked = stub_trees(monkeypatch, failing)
    out = tmp_path / "BENCH.json"
    argv = ["HEAD", "--out", str(out), "--pairs", "2", "--claim", claim]
    for w in workloads:
        argv += ["--workload", w]
    with pytest.raises(SystemExit) as exc:
        ab.main(argv)
    assert exc.value.code == 2
    assert "--claim takes WORKLOAD:METRIC" in capsys.readouterr().err
    assert asked == [] and not out.exists()


def test_a_claim_on_correct_runs_is_judged(tmp_path, monkeypatch):
    """The change is faster by 10% in every pair with no spread: the claim
    holds; and against itself it does not."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def timed(side, workload):
        scale = 0.9 if side == "change" else 1.0
        metrics = {m["name"]: {"value": scale if m["better"] == "lower" else 1 / scale}
                   for m in spec["end_to_end"]}
        return {"exit": 0,
                "record": {"reference": "matched", "fail_ratio": 0.0, "digest": ["d"]},
                "result": {"correct": True, "failed": 0, "metrics": metrics}}

    stub_trees(monkeypatch, timed)
    out = tmp_path / "BENCH.json"
    argv = ["HEAD", "--out", str(out), "--pairs", "10", "--workload", "main_theorem",
            "--claim", "main_theorem:wall_s"]
    assert ab.main(argv) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["holds"] is True and claim["wins"] == 10
    assert claim["median_change_ratio"] == -0.1

    stub_trees(monkeypatch, lambda side, workload: timed("parent", workload))
    assert ab.main(argv) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["holds"] is False and claim["wins"] == 0


@pytest.mark.parametrize("env, recorded", [("1", True), ("", False), (None, False)])
def test_the_machine_block_records_the_bytecode_regime(env, recorded, tmp_path,
                                                       monkeypatch):
    """Whether the runs write no bytecode, as PYTHONDONTWRITEBYTECODE passes
    it to every benchmark process: an empty value leaves it off."""
    if env is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", env)
    stub_trees(monkeypatch, failing)
    out = tmp_path / "BENCH.json"
    ab.main(["HEAD", "--out", str(out), "--pairs", "2", "--workload", "main_theorem"])
    assert json.loads(out.read_text())["machine"]["dont_write_bytecode"] is recorded
