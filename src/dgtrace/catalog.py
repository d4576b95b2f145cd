"""Built-in algebras with shipped diagonal resolutions.

Every entry is degree-0 concentrated, validated on construction, proper and
homologically smooth (witnessed by its resolution): the ground field, the
split quadratic etale algebra k x k, the 2x2 matrix algebra, the path
algebras of the linear quivers with two and three vertices, the Kronecker
quiver, and the tensor square of the two-vertex path algebra.

Every resolution but the tensor square's is built from vertices and
arrows by `resolutions.vertex_arrow_resolution`.  Each path algebra is
stated once, as a quiver: a list of vertex labels and a list of arrows
(label, source, target) in `QUIVERS`, which `resolutions.quiver_resolution`
turns into the algebra and its two-term resolution; k and k x k are the
quivers without arrows.  The 2x2 matrix algebra has one vertex, E11, and
no arrows.  The mapping `catalog()` returns is built once, at import, and
is read-only; `build_catalog()` builds a new one with empty memos.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence

from .algebras import DgAlgebra, validate_algebra
from .linalg import ONE, ZERO
from .resolutions import (DiagonalResolution, enveloping_resolution,
                          quiver_resolution, tensor_resolution,
                          vertex_arrow_resolution)


class CatalogEntry:
    """Named algebra with its resolution and projective-generator data."""

    def __init__(self, name: str, resolution: DiagonalResolution,
                 idempotents: Sequence[int]):
        self.name = name
        self.algebra = resolution.algebra
        self.resolution = resolution
        # basis indices of a complete set of orthogonal idempotents
        self.idempotents = tuple(idempotents)

    def enveloping_resolution(self) -> DiagonalResolution:
        """Resolution of A^op (x) A, built anew at each call."""
        return enveloping_resolution(self.resolution)

    def __repr__(self):
        return f"CatalogEntry({self.name}, dim={self.algebra.dim})"


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


# (name, vertices, arrows (label, source, target))
QUIVERS = (
    ("k", ["1"], []),
    ("kxk", ["e1", "e2"], []),
    ("A2", ["e1", "e2"], [("a", 0, 1)]),
    ("A3", ["e1", "e2", "e3"], [("a", 0, 1), ("b", 1, 2)]),
    ("Kronecker", ["e1", "e2"], [("a", 0, 1), ("b", 0, 1)]),
)

def build_catalog() -> Dict[str, CatalogEntry]:
    """All shipped instances, built anew with empty memos."""
    entries: Dict[str, CatalogEntry] = {}

    for name, vertices, arrows in QUIVERS:
        r = quiver_resolution(vertices, arrows)
        entries[name] = CatalogEntry(name, r, range(len(vertices)))
        if name == "kxk":
            # one vertex, the full idempotent E11: M2 = M2 E11 (x) E11 M2
            rm2 = vertex_arrow_resolution(matrix_2x2(), [0], [])
            entries["M2"] = CatalogEntry("M2", rm2, [0, 3])

    ra2 = entries["A2"].resolution
    ra2a2 = tensor_resolution(ra2, ra2)
    # orthogonal idempotents e_i (x) e_j at flat index i*3 + j
    entries["A2xA2"] = CatalogEntry("A2xA2", ra2a2, [0, 1, 3, 4])
    return entries


_CATALOG: Mapping[str, CatalogEntry] = MappingProxyType(build_catalog())


def catalog() -> Mapping[str, CatalogEntry]:
    """All shipped instances, built once at import, as a read-only mapping."""
    return _CATALOG


def catalog_entry(name: str) -> CatalogEntry:
    entries = catalog()
    if name not in entries:
        raise KeyError(f"no catalog algebra named {name!r}")
    return entries[name]


def catalog_names() -> List[str]:
    return list(catalog())
