"""The first ops of every benchmark workload, in-process at seed 42.

The benchmark (`perfbench/`) calls dgtrace through its public functions
(`suites.rr_pair_reports(..., sp, spo)`, `pairing.pairing_three_ways(...,
cache)`, `duality.serre_module_data(a, y, dual)`, ...).  Running a few of
its ops here means a change to one of those signatures, or to a result the
references record, fails the test suite and not only the benchmark run.
Only reads `perfbench/`.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import worker  # noqa: E402
import workloads  # noqa: E402
from dgtrace.modules import ExplicitModule  # noqa: E402

SEED = 42
OPS = range(7)  # on main_theorem, one op per catalog algebra


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_first_ops_match_references(name):
    work = workloads.Workload(name, SEED)
    want = worker.load_reference(name, SEED)["op_digests"]
    if name == "main_theorem":
        assert {work.specs[i][0] for i in OPS} == set(work.entries)
    for i in OPS:
        ok, canonical = work.run(i)
        assert ok, (name, i, work.specs[i], canonical)
        assert worker.op_digest(canonical) == want[i], (name, i, work.specs[i])


def test_main_theorem_builds_no_realization(monkeypatch):
    """Both sides of the trace formula are read off matrices over A, and
    sampled twists are checked over A, so no op builds a k-level
    realization of a module."""
    built = []
    original = ExplicitModule.from_semifree.__func__

    def counted(cls, m):
        built.append(m)
        return original(cls, m)
    monkeypatch.setattr(ExplicitModule, "from_semifree", classmethod(counted))
    work = workloads.Workload("main_theorem", SEED)
    for i in OPS:
        assert work.run(i)[0]
    assert not built
