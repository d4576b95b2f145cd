"""Every verification battery reports its own failure.

Each battery is a stream of verdicts counted by `suites._tally`.  The tests
here wrap a name the battery calls through `dgtrace.suites` so that its
n-th result is corrupted, and check that the battery, `full_suite` and the
CLI commands built on them report the failure: `ok` is False, a counted
battery passes exactly one instance fewer than it checks, and the command
exits 1.  A battery whose verdict could not fail would pass every other
tier-1 test, since on correct code every verdict holds.
"""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from dgtrace import suites
from dgtrace.catalog import catalog_entry, catalog_names
from dgtrace.cli import main
from dgtrace.complexes import GradedSpace
from oracles import shift_module

SEED = 42


# -- the tally ----------------------------------------------------------------

def test_tally_of_no_verdicts_holds():
    assert suites._tally(iter(())) == {"checked": 0, "passed": 0, "ok": True}


def test_tally_of_true_verdicts_holds():
    assert suites._tally([True] * 3) == {"checked": 3, "passed": 3, "ok": True}


def test_tally_counts_a_mixed_stream():
    assert suites._tally([True, False, True, False, True]) == {
        "checked": 5, "passed": 3, "ok": False}


def test_tally_runs_every_check_after_a_failure():
    ran = []

    def verdicts():
        for i in range(4):
            ran.append(i)
            yield i != 1
    assert suites._tally(verdicts()) == {"checked": 4, "passed": 3, "ok": False}
    assert ran == [0, 1, 2, 3]


# -- corrupting one result -----------------------------------------------------

def _corrupt_nth(monkeypatch, name, n, corrupt):
    """Wrap suites.<name> so that the result of its n-th call (from 0) goes
    through `corrupt`."""
    real = getattr(suites, name)
    calls = []

    def wrapped(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return corrupt(result) if len(calls) == n + 1 else result
    monkeypatch.setattr(suites, name, wrapped)


def _bump(x):
    """A rational one larger, or a coordinate tuple whose first entry is."""
    return (x[0] + 1,) + tuple(x[1:]) if isinstance(x, tuple) else x + 1


def _shift_class(cls):
    """A class off by the first basis class of its HH_0 (nonzero whenever
    the algebra is)."""
    return cls + cls.space.basis_classes()[0]


def _assert_one_failure(summary):
    assert summary["checked"] > 1
    assert summary["passed"] == summary["checked"] - 1
    assert summary["ok"] is False


def test_rr_tally_records_a_failing_report(monkeypatch):
    _corrupt_nth(monkeypatch, "verify_rr", 2,
                 lambda rep: dataclasses.replace(rep, rhs=_bump(rep.rhs)))
    tally = suites.rr_tally(catalog_entry("A2"), 8, SEED)
    assert (tally["checked"], tally["passed"]) == (8, 7)
    assert [f["instance"] for f in tally["failures"]] == ["A2#2"]


def test_euler_formula_suite_counts_a_failure(monkeypatch):
    _corrupt_nth(monkeypatch, "euler_trace", 5, _bump)
    _assert_one_failure(suites.euler_formula_suite(8, SEED))


def test_conjugation_suite_counts_a_failure(monkeypatch):
    _corrupt_nth(monkeypatch, "hh_class", 3, _shift_class)
    _assert_one_failure(suites.conjugation_suite(6, SEED))


def test_adapt_suite_counts_a_failure(monkeypatch):
    _corrupt_nth(monkeypatch, "rr_left_side", 1, _bump)
    _assert_one_failure(suites.adapt_suite(SEED))


def test_kernel_composition_suite_counts_a_failure(monkeypatch):
    _corrupt_nth(monkeypatch, "verify_kernel_composition", 2,
                 lambda rep: dataclasses.replace(rep, rhs=_bump(rep.rhs)))
    _assert_one_failure(suites.kernel_composition_suite(4, SEED))


def _one_duality_failure(summary, part):
    """Exactly the named part of a duality summary fails."""
    assert summary["ok"] is False
    assert summary["double_dual_exact"] is (part != "double_dual")
    dh = summary["dualhom_quasi_iso"]
    assert dh["passed"] == dh["checked"] - (part == "dual_hom")
    for section in ("contraction", "serre"):
        failing = [name for name, r in summary[section].items() if not r["ok"]]
        assert len(failing) == (part == section), (section, failing)


def test_duality_suite_counts_a_dual_hom_failure(monkeypatch):
    def refuse(rep):
        rep.quasi_iso = False
        return rep
    _corrupt_nth(monkeypatch, "dualhom_check", 4, refuse)
    summary = suites.duality_suite(10, SEED)
    assert summary["dualhom_quasi_iso"] == {"checked": 10, "passed": 9}
    _one_duality_failure(summary, "dual_hom")


def test_duality_suite_sees_a_double_dual_that_moves(monkeypatch):
    # call 2k + 1 is the outer dual of check k
    _corrupt_nth(monkeypatch, "dualize", 3, lambda p: shift_module(p, 1))
    _one_duality_failure(suites.duality_suite(10, SEED), "double_dual")


def test_duality_suite_sees_a_contraction_failure(monkeypatch):
    _corrupt_nth(monkeypatch, "omega_contraction_dims", 1,
                 lambda dims: GradedSpace({p: d + 1 for p, d in dims.dims.items()}))
    _one_duality_failure(suites.duality_suite(10, SEED), "contraction")


def test_duality_suite_sees_a_serre_failure(monkeypatch):
    # the first pair of an algebra is (P_0, P_0), whose Hom is nonzero
    def grow(hom):
        dims = hom.cohomology_dims()
        return SimpleNamespace(cohomology_dims=lambda: GradedSpace(
            {**dims.dims, 0: dims.dim(0) + 1}))
    _corrupt_nth(monkeypatch, "hom_into_serre", 0, grow)
    _one_duality_failure(suites.duality_suite(10, SEED), "serre")


HEREDITARY = {"A2", "A3", "Kronecker"}


@pytest.mark.parametrize("degree", [0, 1])
def test_hh_description_suite_sees_a_wrong_dimension(degree, monkeypatch):
    """A wrong degree-0 dimension fails every algebra; a nonzero higher
    one fails exactly the hereditary algebras."""
    real = suites.hh_via_dualizing

    def grown(a, resolution):
        dims = real(a, resolution)
        return GradedSpace({**dims.dims, degree: dims.dim(degree) + 1})
    monkeypatch.setattr(suites, "hh_via_dualizing", grown)
    summary = suites.hh_description_suite()
    assert summary["ok"] is False
    failing = {name for name, r in summary["per_algebra"].items() if not r["ok"]}
    assert failing == (set(catalog_names()) if degree == 0 else HEREDITARY)


def test_cartan_tables_see_a_wrong_pairing(monkeypatch):
    _corrupt_nth(monkeypatch, "pair_scalar", 5, _bump)
    summary = suites.cartan_tables()
    assert summary["ok"] is False
    assert [r["ok"] for r in summary["per_algebra"].values()].count(False) == 1


def _coherence_failure(summary, flag):
    """Exactly one algebra fails, on the named flag alone, or only the
    transfer check fails."""
    assert summary["ok"] is False
    failing = {name: [k for k, v in r.items() if v is False]
               for name, r in summary["per_algebra"].items() if not r["ok"]}
    if flag == "transfer_vs_cup":
        assert failing == {} and summary["transfer_vs_cup"] is False
    else:
        assert [sorted(v) for v in failing.values()] == [sorted([flag, "ok"])]
        assert summary["transfer_vs_cup"] is True


def test_pairing_coherence_sees_three_ways_that_differ(monkeypatch):
    _corrupt_nth(monkeypatch, "pairing_three_ways", 7,
                 lambda s: (s[0], s[1], s[2] + 1))
    _coherence_failure(suites.pairing_coherence_suite(SEED), "three_ways")


def test_pairing_coherence_sees_a_broken_unit_law(monkeypatch):
    # the first cup the suite makes is the unit law of the first algebra
    _corrupt_nth(monkeypatch, "cup", 0, _shift_class)
    _coherence_failure(suites.pairing_coherence_suite(SEED), "unit_law")


def test_pairing_coherence_sees_a_pairing_moved_by_a_commutator(monkeypatch):
    # k and kxk have no nonzero commutator, so they pair nothing; call 0 is
    # M2's unshifted pairing, call 1 its first shifted one
    _corrupt_nth(monkeypatch, "pair_scalar", 1, _bump)
    _coherence_failure(suites.pairing_coherence_suite(SEED), "well_defined")


def test_pairing_coherence_sees_a_transfer_off_the_cup(monkeypatch):
    _corrupt_nth(monkeypatch, "KernelTransfer", 2, lambda tr: SimpleNamespace(
        apply=lambda lam: _shift_class(tr.apply(lam))))
    _coherence_failure(suites.pairing_coherence_suite(SEED), "transfer_vs_cup")


# -- full_suite and the CLI ------------------------------------------------------

# each battery full_suite runs, and the section of the summary it fills
BATTERIES = {"rr_tally": "main_theorem", "euler_formula_suite": "euler_formula",
             "conjugation_suite": "conjugation",
             "hh_description_suite": "hh_descriptions", "duality_suite": "duality",
             "pairing_coherence_suite": "pairing_coherence",
             "adapt_suite": "adapt", "kernel_composition_suite": "kernel_composition",
             "cartan_tables": "cartan"}


def _stub_batteries(monkeypatch, failing=None):
    """Replace every battery full_suite runs by a constant summary; the one
    named `failing` (a battery, or "rr_tally") reports a failure."""
    for name in list(BATTERIES)[1:]:
        summary = {"ok": name != failing}
        monkeypatch.setattr(suites, name, lambda *a, _s=summary, **k: dict(_s))

    def rr_tally(entry, count, seed):
        failures = [{"instance": f"{entry.name}#0"}] if failing == "rr_tally" else []
        return {"checked": 1, "passed": 1 - len(failures), "failures": failures}
    monkeypatch.setattr(suites, "rr_tally", rr_tally)


def test_full_suite_passes_when_every_battery_does(monkeypatch):
    _stub_batteries(monkeypatch)
    assert suites.full_suite(5, SEED)["ok"] is True


@pytest.mark.parametrize("failing", BATTERIES)
def test_full_suite_fails_when_one_battery_does(failing, monkeypatch):
    _stub_batteries(monkeypatch, failing)
    summary = suites.full_suite(5, SEED)
    assert summary["ok"] is False
    failed = [k for k in BATTERIES.values() if not summary[k]["ok"]]
    assert failed == [BATTERIES[failing]]


def _cli(args, capsys):
    code = main(args)
    return code, json.loads(capsys.readouterr().out)


def test_cli_verify_rr_exits_1_on_one_failing_report(monkeypatch, capsys):
    _corrupt_nth(monkeypatch, "verify_rr", 2,
                 lambda rep: dataclasses.replace(rep, rhs=_bump(rep.rhs)))
    code, out = _cli(["--random", "8", "verify-rr", "--algebra", "A2"], capsys)
    per = out["per_algebra"]["A2"]
    assert code == 1 and out["ok"] is False
    assert (per["checked"], per["passed"]) == (8, 7)
    assert [f["instance"] for f in per["failures"]] == ["A2#2"]


def test_cli_verify_suite_exits_1_when_one_battery_fails(monkeypatch, capsys):
    _stub_batteries(monkeypatch, "cartan_tables")
    code, out = _cli(["--random", "5", "verify-suite"], capsys)
    assert code == 1 and out["ok"] is False and out["cartan"]["ok"] is False


def test_cli_verify_serre_exits_1_on_one_dual_hom_failure(monkeypatch, capsys):
    def refuse(rep):
        rep.quasi_iso = False
        return rep
    _corrupt_nth(monkeypatch, "dualhom_check", 0, refuse)
    code, out = _cli(["--random", "8", "verify-serre"], capsys)
    assert code == 1 and out["ok"] is False
    assert out["dualhom_quasi_iso"] == {"checked": 10, "passed": 9}
