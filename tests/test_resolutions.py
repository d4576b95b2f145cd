"""The opposite resolution against the flat-index transport it stands for.

`opposite_resolution` moves a resolution of A over A^e = A (x) A^op to one
of A^op over (A^op)^e = A^op (x) A.  Degree-0 data: the factor swap is the
permutation i*n + j -> j*n + i of the flat enveloping basis with every
scalar +1.  The reference below applies that permutation by hand to the
twist and idempotent columns and to the separability element.
"""

from fractions import Fraction

import pytest

from dgtrace import algebras
from dgtrace.algebras import opposite, tensor_algebras
from dgtrace.errors import NotSeparableB
from dgtrace.resolutions import opposite_resolution

CATALOG = ("k", "kxk", "M2", "A2", "A3", "Kronecker", "A2xA2")


def flip(n):
    """The flat-index swap of A (x) A^op with dim A = n; an involution."""
    perm = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            perm[i * n + j] = j * n + i
    return perm


def flipped_columns(columns, perm):
    return tuple(tuple((j, tuple(sorted((perm[t], c) for t, c in vec)))
                       for j, vec in col) for col in columns)


@pytest.mark.parametrize("name", CATALOG)
def test_opposite_resolution_matches_flat_swap(cat, name):
    r = cat[name].resolution
    a = r.algebra
    n = a.dim
    perm = flip(n)
    rop = opposite_resolution(r)
    p, q = r.module, rop.module
    assert rop.algebra.same_structure(opposite(a))
    assert q.module.algebra.same_structure(tensor_algebras(opposite(a), a))
    assert q.module.shifts == p.module.shifts
    assert q.module.labels == p.module.labels
    assert q.module.twist_columns == flipped_columns(p.module.twist_columns, perm)
    if p.idempotent is None:
        assert q.idempotent is None
    else:
        assert q.idempotent.columns == flipped_columns(p.idempotent.columns, perm)
    assert [x.coords for x in rop.augmentation] == [x.coords for x in r.augmentation]
    assert all(x.algebra is rop.algebra for x in rop.augmentation)
    assert rop.separable == r.separable
    if r.separable:
        e = r.separability_idempotent()
        want = [Fraction(0)] * (n * n)
        for flat, c in enumerate(e.coords):
            want[perm[flat]] = c
        sep = rop.separability_idempotent()
        assert sep.coords == tuple(want)
        assert sep.algebra.same_structure(q.module.algebra)
    if name != "A2xA2":  # its enveloping algebra has dimension 81
        rop.validate()


def test_a_resolution_without_separability_idempotent_refuses_to_give_one(cat):
    """A2 is not separable: its resolution ships no separability idempotent,
    and asking for one raises NotSeparableB, as kernel composition does."""
    res = cat["A2"].resolution
    assert not res.separable
    with pytest.raises(NotSeparableB, match="no separability idempotent"):
        res.separability_idempotent()


@pytest.mark.parametrize("name", ("k", "kxk", "M2"))
def test_enveloping_separability_idempotent_is_built_on_first_read(
        fresh_catalog, monkeypatch, name):
    """The enveloping resolution of a separable algebra builds (^eA)^e, of
    dimension (dim A)^4, only when its separability idempotent is read.
    The value is an idempotent of (^eA)^e whose image under the
    multiplication ^eA (x) ^eA^op -> ^eA is the unit of ^eA, both checked
    through the dense `multiply`."""
    built = []
    tensor = algebras._tensor

    def counted(x, y):
        built.append(x)
        return tensor(x, y)
    monkeypatch.setattr(algebras, "_tensor", counted)
    a = fresh_catalog[name].algebra
    env_res = fresh_catalog[name].enveloping_resolution()
    assert env_res.separable
    ea = tensor_algebras(opposite(a), a)
    assert not any(x is ea for x in built)
    sep = env_res.separability_idempotent()
    assert sum(x is ea for x in built) == 1
    assert env_res.separability_idempotent() is sep
    env = sep.algebra
    assert env.same_structure(tensor_algebras(ea, opposite(ea)))
    assert env.dim == a.dim ** 4
    assert env.multiply(sep.coords, sep.coords) == sep.coords
    n = ea.dim
    image = [Fraction(0)] * n
    for flat, c in enumerate(sep.coords):
        if c:
            x, y = divmod(flat, n)
            prod = ea.multiply(ea.basis_element(x).coords, ea.basis_element(y).coords)
            image = [s + c * p for s, p in zip(image, prod)]
    assert tuple(image) == ea.unit
