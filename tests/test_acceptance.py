"""Acceptance criteria, one test per criterion, exact tolerances (zero).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Every comparison is an equality of rationals or integers;
nothing is approximate.
"""

import hashlib
import json
import sys
import time

import pytest

from dgtrace.catalog import catalog
from dgtrace.suites import (adapt_suite, cartan_tables, conjugation_suite,
                            duality_suite, euler_formula_suite, full_suite,
                            hh_description_suite, kernel_composition_suite,
                            pairing_coherence_suite, rr_suite)

SEED = 42


def _line(name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    sys.stdout.write(f"[{status}] {name}{': ' + extra if extra else ''}\n")
    sys.stdout.flush()


def test_criterion_1_main_theorem_suite():
    """>= 200 seeded random instances per catalog algebra, exact equality."""
    t0 = time.time()
    total = 0
    passed = 0
    per = {}
    for name, ent in catalog().items():
        reports = list(rr_suite(ent, 200, SEED))
        good = sum(1 for r in reports if r.equal)
        per[name] = f"{good}/{len(reports)}"
        total += len(reports)
        passed += good
    elapsed = time.time() - t0
    ok = passed == total and all(
        int(v.split("/")[1]) >= 200 for v in per.values())
    _line("criterion 1: main theorem, 200 instances x 7 algebras", ok,
          f"{passed}/{total} in {elapsed:.1f}s " + str(per))
    assert ok
    assert elapsed < 300, "main theorem suite must finish within 5 minutes"


def test_criterion_2_cartan_oracle():
    """Pairing tables equal independent basis enumeration."""
    out = cartan_tables()
    a2_ok = out["per_algebra"]["A2"]["table"] == [["1", "1"], ["0", "1"]]
    a3_ok = out["per_algebra"]["A3"]["table"] == [["1", "1", "1"],
                                                  ["0", "1", "1"],
                                                  ["0", "0", "1"]]
    ok = out["ok"] and a2_ok and a3_ok
    _line("criterion 2: Cartan-matrix oracle (A2, A3)", ok)
    assert ok


def test_criterion_3_euler_formula():
    """chain supertrace equals Euler trace on 1000 random closed maps."""
    out = euler_formula_suite(1000, SEED)
    ok = out["ok"] and out["checked"] >= 1000
    _line("criterion 3: Euler formula, 1000 closed endomorphisms", ok,
          f"{out['passed']}/{out['checked']}")
    assert ok


def test_criterion_4_conjugation_invariance():
    """hh(g h) = hh(h g) for 200 random pairs."""
    out = conjugation_suite(200, SEED)
    ok = out["ok"] and out["checked"] >= 200
    _line("criterion 4: conjugation invariance, 200 pairs", ok,
          f"{out['passed']}/{out['checked']}")
    assert ok


def test_criterion_5_two_hh_descriptions():
    """dim A/[A,A] equals the degree-0 dim of the dual description on every
    catalog algebra; higher dims vanish for hereditary quiver algebras."""
    out = hh_description_suite()
    _line("criterion 5: two Hochschild descriptions agree", out["ok"],
          str({k: v["hh_dims"] for k, v in out["per_algebra"].items()}))
    assert out["ok"]


def test_criterion_6_duality_suite():
    """Double dual exact; dual-Hom comparison on 50 random pairs; dualizing
    contraction has the dims of A; Serre identity on catalog projectives."""
    out = duality_suite(50, SEED)
    ok = (out["ok"] and out["double_dual_exact"]
          and out["dualhom_quasi_iso"]["passed"] == 50)
    _line("criterion 6: duality suite", ok,
          f"dualhom {out['dualhom_quasi_iso']['passed']}/50")
    assert ok


def test_criterion_7_pairing_coherence():
    """Three pairing constructions agree on full bases; unit law; transfer
    equals the contraction against the kernel class."""
    out = pairing_coherence_suite(SEED)
    adapt = adapt_suite(SEED)
    ok = out["ok"] and adapt["ok"]
    _line("criterion 7: pairing coherence (3 constructions, unit, transfer)",
          ok, f"adapt {adapt['passed']}/{adapt['checked']}")
    assert ok


def test_criterion_8_kernel_composition():
    """Composed-kernel class equality over separable middle algebras."""
    out = kernel_composition_suite(20, SEED)
    ok = out["ok"] and out["checked"] >= 20
    _line("criterion 8: kernel composition, 20 separable cases", ok,
          f"{out['passed']}/{out['checked']}")
    assert ok


# sha256 of the seed-42 reports below (the verify-serre report's is in
# CLI_BATCH_SHA256); a change to any digest is a change of the reports,
# which every refactor must leave byte-identical
FULL_SUITE_SHA256 = "ead6c4be121c79652559d3c92ee101cd7f3c722c293d6cf7c6f150279aa63be4"
VERIFY_RR_SHA256 = "ede14360516495cb1d60cccb6f3d55f176514ce4c529f33520b4ce8e1686bff6"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_criterion_9_determinism():
    """Byte-identical reports for repeated seed-42 runs, equal to the pinned
    digests."""
    first = json.dumps(full_suite(5, SEED), sort_keys=True, indent=2)
    second = json.dumps(full_suite(5, SEED), sort_keys=True, indent=2)
    ok = first == second and _sha256(first) == FULL_SUITE_SHA256
    if ok:
        from dgtrace.cli import main as cli_main
        import io
        import contextlib

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            return code, buf.getvalue()
        outs = [run(["--random", "4", "--seed", "42", "verify-rr", "--algebra", "A2"])
                for _ in range(2)]
        serre = run(["--seed", "42", "verify-serre"])
        ok = (outs[0] == outs[1] and outs[0][0] == 0
              and _sha256(outs[0][1]) == VERIFY_RR_SHA256
              and serre[0] == 0
              and _sha256(serre[1]) == CLI_BATCH_SHA256["--seed 42 verify-serre"])
    _line("criterion 9: determinism at seed 42", ok)
    assert ok


# sha256 of the CLI batches whose reports each change to the verifier must
# leave byte-identical: the suite at two seeds, the 200-draw rr batch, the
# Serre report, the validation of every catalog algebra and resolution, and
# two reports of the text emitter.  CI checks the installed console script
# against this table.
CLI_BATCH_SHA256 = {
    "--random 50 --seed 42 verify-suite":
        "f78775aca9811abac39747542c363f45f243aaaaf48aa1b2801afaa99a85ab25",
    "--random 200 --seed 42 verify-rr":
        "21cb64fad41f1e6a009f42960ebef4241d549cecde26aa356cd4cd424d1cb6bd",
    "--random 5 --seed 7 verify-suite":
        "53233007a02cc6cff871aa7c205866985d48d31506cffd6ea2e88237a606c6b2",
    "validate":
        "116c85155169d517d56205f3df11710115df6aa75e54624b721bb491705d8198",
    "--seed 42 verify-serre":
        "0343ad11b5acec13b65deb42f62b7bfbe42c9fbffeb009388e1eba65750b8b52",
    "--output text --seed 42 verify-serre":
        "70edf45dd114500795b8ef3c44dbb20c6c35682de8363d48fe0cd2c3114207d5",
    "--output text --random 5 --seed 7 verify-suite":
        "768b67661b15587fa0f6cf8dd1727faf526cf1b2df4d7ac2551b0a12d2d2d8ee",
}


@pytest.mark.parametrize("argv", sorted(CLI_BATCH_SHA256))
def test_cli_batch_digests(capsys, argv):
    from dgtrace.cli import main as cli_main
    assert cli_main(argv.split()) == 0
    assert _sha256(capsys.readouterr().out) == CLI_BATCH_SHA256[argv]
