"""The opposite resolution against the flat-index transport it stands for.

`opposite_resolution` moves a resolution of A over A^e = A (x) A^op to one
of A^op over (A^op)^e = A^op (x) A.  Degree-0 data: the factor swap is the
permutation i*n + j -> j*n + i of the flat enveloping basis with every
scalar +1.  The reference below applies that permutation by hand to the
twist and idempotent columns.
"""

import pytest

from dgtrace.algebras import opposite, tensor_algebras
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
    assert q.module.twist_columns == flipped_columns(p.module.twist_columns, perm)
    if p.idempotent is None:
        assert q.idempotent is None
    else:
        assert q.idempotent.columns == flipped_columns(p.idempotent.columns, perm)
    assert [x.coords for x in rop.augmentation] == [x.coords for x in r.augmentation]
    assert all(x.algebra is rop.algebra for x in rop.augmentation)
    if name != "A2xA2":  # its enveloping algebra has dimension 81
        rop.validate()
