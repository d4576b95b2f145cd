"""Built-in algebras with shipped diagonal resolutions.

Every entry is degree-0 concentrated, validated on construction, proper and
homologically smooth (witnessed by its resolution): the ground field, the
split quadratic etale algebra k x k, the 2x2 matrix algebra, the path
algebras of the linear quivers with two and three vertices, the Kronecker
quiver, and the tensor square of the two-vertex path algebra.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .algebras import DgAlgebra, opposite, tensor_algebras, validate_algebra
from .resolutions import (DiagonalResolution, enveloping_resolution,
                          quiver_resolution, separable_resolution,
                          tensor_resolution)

ONE = Fraction(1)
ZERO = Fraction(0)


class CatalogEntry:
    """Named algebra with its resolution and projective-generator data."""

    def __init__(self, name: str, algebra: DgAlgebra,
                 resolution: DiagonalResolution,
                 idempotents: Sequence[int], description: str = ""):
        self.name = name
        self.algebra = algebra
        self.resolution = resolution
        # basis indices of a complete set of orthogonal idempotents
        self.idempotents = tuple(idempotents)
        self.description = description
        self._env_resolution: Optional[DiagonalResolution] = None

    def enveloping_resolution(self) -> DiagonalResolution:
        """Resolution of A^op (x) A, built once on demand."""
        if self._env_resolution is None:
            self._env_resolution = enveloping_resolution(self.resolution)
        return self._env_resolution

    def __repr__(self):
        return f"CatalogEntry({self.name}, dim={self.algebra.dim})"


def ground_field() -> DgAlgebra:
    return validate_algebra(["1"], [0], {(0, 0): ((0, ONE),)}, [ONE])


def split_pair() -> DgAlgebra:
    """k x k: two orthogonal idempotents."""
    mult = {(0, 0): ((0, ONE),), (1, 1): ((1, ONE),)}
    return validate_algebra(["e1", "e2"], [0, 0], mult, [ONE, ONE])


def matrix_2x2() -> DgAlgebra:
    """2x2 matrices on the matrix-unit basis E11, E12, E21, E22."""
    labels = ["E11", "E12", "E21", "E22"]

    def idx(i, j):
        return (i - 1) * 2 + (j - 1)

    mult = {}
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    if j == k:
                        mult[(idx(i, j), idx(k, l))] = ((idx(i, l), ONE),)
    unit = [ONE, ZERO, ZERO, ONE]
    return validate_algebra(labels, [0, 0, 0, 0], mult, unit)


def path_algebra_a2() -> DgAlgebra:
    """Path algebra of the two-vertex linear quiver: e1, e2, arrow a with
    e1 a = a = a e2."""
    mult = {(0, 0): ((0, ONE),), (1, 1): ((1, ONE),),
            (0, 2): ((2, ONE),), (2, 1): ((2, ONE),)}
    return validate_algebra(["e1", "e2", "a"], [0, 0, 0], mult,
                            [ONE, ONE, ZERO])


def path_algebra_a3() -> DgAlgebra:
    """Path algebra of the three-vertex linear quiver: arrows a (e1 a e2)
    and b (e2 b e3), composite path ab in e1 A e3."""
    labels = ["e1", "e2", "e3", "a", "b", "ab"]
    E1, E2, E3, A_, B_, AB = range(6)
    mult = {
        (E1, E1): ((E1, ONE),), (E2, E2): ((E2, ONE),), (E3, E3): ((E3, ONE),),
        (E1, A_): ((A_, ONE),), (A_, E2): ((A_, ONE),),
        (E2, B_): ((B_, ONE),), (B_, E3): ((B_, ONE),),
        (E1, AB): ((AB, ONE),), (AB, E3): ((AB, ONE),),
        (A_, B_): ((AB, ONE),),
    }
    unit = [ONE, ONE, ONE, ZERO, ZERO, ZERO]
    return validate_algebra(labels, [0] * 6, mult, unit)


def kronecker_algebra() -> DgAlgebra:
    """Path algebra of the Kronecker quiver: two parallel arrows a, b with
    e1 a = a = a e2 and e1 b = b = b e2."""
    labels = ["e1", "e2", "a", "b"]
    E1, E2, A_, B_ = range(4)
    mult = {
        (E1, E1): ((E1, ONE),), (E2, E2): ((E2, ONE),),
        (E1, A_): ((A_, ONE),), (A_, E2): ((A_, ONE),),
        (E1, B_): ((B_, ONE),), (B_, E2): ((B_, ONE),),
    }
    return validate_algebra(labels, [0] * 4, mult, [ONE, ONE, ZERO, ZERO])


def _m2_separability(m2: DgAlgebra):
    """E = (1/2) sum_{ij} E_ij (x) E_ji in M2 (x) M2^op."""
    env = tensor_algebras(m2, opposite(m2))
    half = Fraction(1, 2)
    coords = [ZERO] * env.dim

    def idx(i, j):
        return (i - 1) * 2 + (j - 1)

    for i in (1, 2):
        for j in (1, 2):
            coords[idx(i, j) * 4 + idx(j, i)] = half
    return env.element(coords)


def _split_pair_separability(kk: DgAlgebra):
    """E = e1 (x) e1 + e2 (x) e2."""
    env = tensor_algebras(kk, opposite(kk))
    coords = [ZERO] * env.dim
    coords[0 * 2 + 0] = ONE
    coords[1 * 2 + 1] = ONE
    return env.element(coords)


_CATALOG: Optional[Dict[str, CatalogEntry]] = None


def catalog() -> Dict[str, CatalogEntry]:
    """All shipped instances, built once per process."""
    global _CATALOG
    if _CATALOG is not None:
        return _CATALOG
    entries: Dict[str, CatalogEntry] = {}

    k = ground_field()
    rk = separable_resolution(k, k.one(), name="k")
    entries["k"] = CatalogEntry("k", k, rk, [0], "the ground field")

    kk = split_pair()
    rkk = separable_resolution(kk, _split_pair_separability(kk), name="kxk")
    entries["kxk"] = CatalogEntry("kxk", kk, rkk, [0, 1],
                                  "product of two copies of the ground field")

    m2 = matrix_2x2()
    rm2 = separable_resolution(m2, _m2_separability(m2), name="M2")
    entries["M2"] = CatalogEntry("M2", m2, rm2, [0, 3], "2x2 matrix algebra")

    a2 = path_algebra_a2()
    ra2 = quiver_resolution(a2, [0, 1], [(2, 0, 1)], name="A2")
    entries["A2"] = CatalogEntry("A2", a2, ra2, [0, 1],
                                 "path algebra of the two-vertex quiver")

    a3 = path_algebra_a3()
    ra3 = quiver_resolution(a3, [0, 1, 2], [(3, 0, 1), (4, 1, 2)], name="A3")
    entries["A3"] = CatalogEntry("A3", a3, ra3, [0, 1, 2],
                                 "path algebra of the three-vertex quiver")

    kr = kronecker_algebra()
    rkr = quiver_resolution(kr, [0, 1], [(2, 0, 1), (3, 0, 1)], name="Kronecker")
    entries["Kronecker"] = CatalogEntry("Kronecker", kr, rkr, [0, 1],
                                        "path algebra of the Kronecker quiver")

    ra2a2 = tensor_resolution(ra2, ra2, name="A2xA2")
    # orthogonal idempotents e_i (x) e_j at flat index i*3 + j
    entries["A2xA2"] = CatalogEntry("A2xA2", ra2a2.algebra, ra2a2, [0, 1, 3, 4],
                                    "tensor square of the two-vertex path algebra")

    _CATALOG = entries
    return entries


def catalog_entry(name: str) -> CatalogEntry:
    entries = catalog()
    if name not in entries:
        raise KeyError(f"no catalog algebra named {name!r}")
    return entries[name]


def catalog_names() -> List[str]:
    return list(catalog())
