"""The benchmark's own tests, at a reduced size (the first few ops of each
workload).  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import worker  # noqa: E402

LIMITS = {"main_theorem": 3, "pairing_coherence": 5, "duality_serre": 12}


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "42", "--seconds", "0", "--trace", str(trace),
         "--limit", str(LIMITS[workload])],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.fixture(scope="module", params=sorted(LIMITS))
def runs(request):
    workload = request.param
    return workload, run_bench(workload, 0), run_bench(workload, 1)


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in bench_json()["workloads"]]
    assert sorted(names) == sorted(LIMITS)
    with open(os.path.join(HERE, "layers.json")) as fh:
        assert sorted(json.load(fh)["workload_why"]) == sorted(names)


def test_metric_names_match_benchmark_json(runs):
    _, (_, plain), (_, traced) = runs
    bench = bench_json()
    for result, declared in ((plain, bench["end_to_end"]),
                             (traced, bench["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for m in bench["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0


def test_tracing_keeps_the_result_digest(runs):
    _, (plain_record, _), (traced_record, _) = runs
    # the traced run's untraced and traced passes agree, and match the
    # untraced run's passes
    assert len(traced_record["digest"]) == 1
    assert traced_record["digest"] == plain_record["digest"]


def test_run_record(runs):
    workload, (record, _), _ = runs
    assert record["workload"] == workload and record["seed"] == 42
    assert record["ops_per_pass"] == LIMITS[workload]
    assert record["python"] and record["nproc"] >= 1
    assert record["reference"] == "prefix" and record["fail_ratio"] == 0


@pytest.mark.parametrize("workload", sorted(LIMITS))
def test_wrong_reference_digest_fails_ops(workload):
    work = worker._import_workloads().Workload(workload, 42)
    reference = worker.load_reference(workload, 42)
    n = LIMITS[workload]
    *_, failures, _ = worker.run_ops(work, range(n), reference)
    assert failures == []
    wrong = copy.deepcopy(reference)
    wrong["op_digests"][1] = "0" * 16
    *_, failures, _ = worker.run_ops(work, range(n), wrong)
    assert [f["op"] for f in failures] == [1]
    assert failures[0]["reason"] == "differs from the reference digest"


def test_speed_probe_scales_spans():
    probe = speed.SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        speed.unit()
    t1 = time.perf_counter()
    probe.stop()
    assert len(probe.unit_s) >= 5
    own, factor = probe.scale(t0, t1)
    assert 0 < own < t1 - t0
    # the span is the loop's time less the probe's, at the reference speed
    assert probe.span(t0, t1) == (t1 - t0 - own) * factor
    assert 0.1 < factor < 10


def test_both_seeds_have_full_references():
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    for workload in LIMITS:
        for seed in ("42", "1004"):
            entry = refs[workload][seed]
            assert len(entry["op_digests"]) == entry["ops"]
            assert worker.run_digest(entry["op_digests"]) == entry["digest"]


def test_replay_one_op():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "replay",
         "duality_serre", "1004", "7"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["ok"] and out["reference_match"] is True
