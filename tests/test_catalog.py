import json
import time

import pytest

from dgtrace.cli import main
from dgtrace.errors import AugmentationNotQuasiIso
from dgtrace.hochschild import hh0_space
from dgtrace.resolutions import vertex_arrow_resolution


def test_catalog_names(cat):
    assert set(cat) == {"k", "kxk", "M2", "A2", "A3", "Kronecker", "A2xA2"}


def test_a2_entry(cat):
    assert cat["A2"].algebra.dim == 3


def test_arrow_free_resolutions_length_zero(cat):
    """k, kxk and M2 are resolved by their vertices alone: one shift-0
    generator per vertex, whose idempotent e_v (x) e_v multiplies to its
    augmentation e_v."""
    for name, nv in (("k", 1), ("kxk", 2), ("M2", 1)):
        a = cat[name].algebra
        res = cat[name].resolution
        assert res.module.module.rank == nv
        assert res.module.module.shifts == (0,) * nv
        for g in range(nv):
            total = a.zero()
            for flat, c in enumerate(res.module.idempotent.entries[g][g].coords):
                i, j = divmod(flat, a.dim)
                total = total + (a.basis_element(i) * a.basis_element(j)).scale(c)
            assert total == res.augmentation[g], (name, g)


def test_m2_with_both_diagonal_units_is_not_a_resolution(cat):
    """E11 and E22 as vertices give M2 (+) M2, whose augmentation has a
    kernel; either one alone resolves M2."""
    m2 = cat["M2"].algebra
    with pytest.raises(AugmentationNotQuasiIso):
        vertex_arrow_resolution(m2, [0, 3], []).validate()
    for e in (0, 3):
        vertex_arrow_resolution(m2, [e], []).validate()


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
