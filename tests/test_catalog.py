import json
import time

import pytest

from dgtrace.cli import main
from dgtrace.hochschild import hh0_space


def test_catalog_names(cat):
    assert set(cat) == {"k", "kxk", "M2", "A2", "A3", "Kronecker", "A2xA2"}


def test_a2_entry(cat):
    assert cat["A2"].algebra.dim == 3


def test_m2_resolution_length_zero(cat):
    res = cat["M2"].resolution
    assert res.module.module.rank == 1
    assert res.module.module.shifts == (0,)
    # the module's idempotent is the separability element, which
    # multiplies to the unit
    e = res.module.idempotent.entries[0][0]
    m2 = cat["M2"].algebra
    n = m2.dim
    total = [0] * n
    from fractions import Fraction
    total = [Fraction(0)] * n
    for flat, c in enumerate(e.coords):
        if c:
            i, j = divmod(flat, n)
            prod = m2.multiply(
                tuple(Fraction(1) if t == i else Fraction(0) for t in range(n)),
                tuple(Fraction(1) if t == j else Fraction(0) for t in range(n)))
            total = [x + c * y for x, y in zip(total, prod)]
    assert tuple(total) == m2.unit


def test_a3_entry(cat, a3):
    assert a3.dim == 6
    assert hh0_space(a3).dim == 3


@pytest.mark.parametrize("name", ("k", "kxk", "M2", "A2", "A3", "Kronecker"))
def test_catalog_resolution_validates(cat, name):
    # A2xA2 has its own test below; the quiver resolutions are built
    # unchecked, so this is their check
    assert cat[name].resolution.validate() is cat[name].resolution


def test_a2xa2_resolution_validates(cat):
    cat["A2xA2"].resolution.validate()


def test_enveloping_resolution_a2_validates(cat):
    t0 = time.time()
    env_res = cat["A2"].enveloping_resolution()
    env_res.validate()
    assert time.time() - t0 < 120


def test_cli_verify_serre(capsys):
    code = main(["--random", "8", "verify-serre"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["double_dual_exact"] is True
