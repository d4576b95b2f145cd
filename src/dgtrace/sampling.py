"""Seeded random instances: modules, closed maps, verification batches.

Random perfect modules are built the way semi-free modules are defined:
cones of maps between shifted frees (any degree-compatible matrix between
frees is closed), optionally direct-summed with an idempotent-compressed
free.  Random closed endomorphisms are drawn from the exact kernel of the
entry-level closedness system, so every sample is closed on the nose.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .algebras import DgAlgebra, SparseVec
from .errors import NotDegreeZeroConcentrated
from .linalg import _canon, sparse_kernel
from .modules import (ModuleMap, PerfectModule, SemiFreeModule, rows_of,
                      cone_module, direct_sum_modules, free_module,
                      projective_module)
from .prng import SplitMix64

COEFF_POOL = (-2, -1, 0, 0, 1, 1, 2, 3)


def _coeff(rng: SplitMix64) -> int:
    return COEFF_POOL[rng.below(len(COEFF_POOL))]


def random_coeff(rng: SplitMix64) -> Fraction:
    return Fraction(_coeff(rng))


def _random_coordinates(a: DgAlgebra, degree: int, rng: SplitMix64) -> SparseVec:
    """The nonzero coordinates of a random element of the given degree: one
    random coefficient per basis element of that degree, in index order."""
    return tuple((i, c) for i in range(a.dim)
                 if a.degrees[i] == degree and (c := _coeff(rng)))


def random_free(a: DgAlgebra, rng: SplitMix64, max_rank: int = 2,
                shift_range: Tuple[int, int] = (-2, 2)) -> PerfectModule:
    rank = 1 + rng.below(max_rank)
    shifts = [rng.int_in(*shift_range) for _ in range(rank)]
    return free_module(a, shifts)


def random_map_between_frees(src: PerfectModule, tgt: PerfectModule,
                             rng: SplitMix64) -> ModuleMap:
    """Any degree-compatible matrix between frees is closed."""
    columns = [[] for _ in range(src.rank)]
    for j in range(tgt.rank):
        for i in range(src.rank):
            vec = _random_coordinates(src.algebra, tgt.shifts[j] - src.shifts[i], rng)
            if vec:
                columns[i].append((j, vec))
    return ModuleMap.from_columns(src.module, tgt.module, 0, columns)


def random_semifree(a: DgAlgebra, rng: SplitMix64, max_gens: int = 4,
                    shift_range: Tuple[int, int] = (-2, 2)) -> PerfectModule:
    """A free module or the cone of a random map between frees."""
    style = rng.below(3)
    if style == 0:
        return random_free(a, rng, max_rank=min(2, max_gens), shift_range=shift_range)
    half = max(1, max_gens // 2)
    lo, hi = shift_range
    src = random_free(a, rng, max_rank=half, shift_range=(lo, hi - 1))
    tgt = random_free(a, rng, max_rank=max_gens - src.rank,
                      shift_range=shift_range)
    p = random_map_between_frees(src, tgt, rng)
    return cone_module(p)


def random_perfect(a: DgAlgebra, rng: SplitMix64, idempotents=(),
                   max_gens: int = 4,
                   shift_range: Tuple[int, int] = (-2, 2)) -> PerfectModule:
    """Random semi-free, possibly with a projective summand."""
    base = random_semifree(a, rng, max_gens=max_gens, shift_range=shift_range)
    if idempotents and rng.below(2) == 0:
        e = a.basis_element(idempotents[rng.below(len(idempotents))])
        summand = projective_module(a, e, shift=rng.int_in(*shift_range))
        return direct_sum_modules(base, summand)
    return base


Key = Tuple[int, int, int]
# values in stored form (`linalg._canon`): an int when integral, else a Fraction
Scalar = Union[int, Fraction]
KeyedVector = Tuple[Tuple[Key, Scalar], ...]


def closed_map_kernel(src: SemiFreeModule, tgt: SemiFreeModule,
                      degree: int = 0) -> List[KeyedVector]:
    """A basis of the closed degree-`degree` maps src -> tgt, solved at the
    entry level over a degree-0 algebra: each basis vector as its nonzero
    ((j, i, w), x) coordinates in key order, x the coordinate of e_w in
    entry (j, i).  Between twist-free modules every map is closed, and the
    basis is the unit vectors in key order."""
    a = src.algebra
    if not a.is_degree_zero():
        raise NotDegreeZeroConcentrated("closed maps are solved over degree-0 algebras")
    keys = [(j, i, w) for j in range(tgt.rank) for i in range(src.rank)
            if degree + tgt.shifts[j] == src.shifts[i] for w in range(a.dim)]
    if not any(src.twist_columns) and not any(tgt.twist_columns):
        # no equation: every coordinate is free.  The rows below would give
        # the same unit vectors; this skips their loop over the keys.
        return [((key, 1),) for key in keys]
    # equations: the coordinates (l, i, x) of d(phi)[l][i] = 0, each a row
    # {column: coeff} over the unknown coordinates e_w of entries (j, i)
    sgn = -1 if degree % 2 else 1
    rows_m = rows_of(src.twist_columns, src.rank)
    products = a.rows
    rows: Dict[Key, Dict[int, Scalar]] = defaultdict(dict)
    for col, (j, i, w) in enumerate(keys):
        # + phi[j][i] * deltaN[l][j], in entry (l, i)
        row_w = products[w]
        for l, dn in tgt.twist_columns[j]:
            for t, ct in dn:
                for x, cx in row_w.get(t, ()):
                    row = rows[(l, i, x)]
                    row[col] = row.get(col, 0) + ct * cx
        # - (-1)^degree deltaM[i][i2] * phi[j][i], in entry (j, i2)
        for i2, dm in rows_m[i]:
            for t, ct in dm:
                for x, cx in products[t].get(w, ()):
                    row = rows[(j, i2, x)]
                    row[col] = row.get(col, 0) - sgn * ct * cx
    return [tuple((keys[c], x) for c, x in v)
            for v in sparse_kernel(rows.values(), len(keys))]


def _map_from_vector(src: SemiFreeModule, tgt: SemiFreeModule, degree: int,
                     vec: Iterable[Tuple[Key, Fraction]]) -> ModuleMap:
    """The module map whose entry coordinates are the ((j, i, w), x) pairs
    of vec."""
    cells: List[Dict[int, List]] = [{} for _ in range(src.rank)]
    for (j, i, w), x in sorted(vec):
        if x:
            cells[i].setdefault(j, []).append((w, _canon(x)))
    columns = [tuple((j, tuple(ws)) for j, ws in cell.items()) for cell in cells]
    return ModuleMap.from_columns(src, tgt, degree, columns)


def closed_map_basis(src: SemiFreeModule, tgt: SemiFreeModule,
                     degree: int = 0) -> List[ModuleMap]:
    """Basis of the closed degree-`degree` maps src -> tgt, solved at the
    entry level (degree-0 algebras)."""
    return [_map_from_vector(src, tgt, degree, v)
            for v in closed_map_kernel(src, tgt, degree)]


def random_closed_map(src: SemiFreeModule, tgt: SemiFreeModule,
                      vectors: Sequence[KeyedVector],
                      rng: SplitMix64) -> ModuleMap:
    """A random closed degree-0 map from a kernel of closed_map_kernel:
    sum_k c_k v_k with one random coefficient per vector, in order; a random
    basis vector when every c_k is 0; the zero map, drawing nothing, for an
    empty kernel."""
    if not vectors:
        return ModuleMap.zero(src, tgt)
    total: Dict[Key, Fraction] = {}
    for vec in vectors:
        c = _coeff(rng)
        if c:
            for key, x in vec:
                total[key] = total.get(key, 0) + c * x
    if total:
        return _map_from_vector(src, tgt, 0, total.items())
    return _map_from_vector(src, tgt, 0, vectors[rng.below(len(vectors))])


class EndoSampler:
    """Closed endomorphisms of a fixed perfect module, kernel solved once."""

    def __init__(self, p: PerfectModule):
        self.module = p
        self.vectors = closed_map_kernel(p.module, p.module, 0)

    def draw(self, rng: SplitMix64) -> ModuleMap:
        """e f e for a random f of the kernel, marked `drawn_from` the
        module: closed (a sum of kernel vectors, compressed by a closed e),
        of degree 0 with valid entry degrees, and e f e = f, so the module's
        guard and `hh_class` take it without a check.  The one place that
        sets the mark."""
        f = self.module.compress(random_closed_map(
            self.module.module, self.module.module, self.vectors, rng))
        f.drawn_from = self.module
        return f


def random_module_with_endos(a: DgAlgebra, rng: SplitMix64, idempotents=(),
                             max_gens: int = 4,
                             shift_range=(-2, 2)) -> Tuple[PerfectModule, EndoSampler]:
    p = random_perfect(a, rng, idempotents=idempotents, max_gens=max_gens,
                       shift_range=shift_range)
    return p, EndoSampler(p)


def random_closed_pair(a: DgAlgebra, rng: SplitMix64, max_gens: int = 3,
                       shift_range=(-1, 1)):
    """(M, N, g: M -> N, h: N -> M), both maps closed degree 0."""
    m = random_semifree(a, rng, max_gens=max_gens, shift_range=shift_range)
    n = random_semifree(a, rng, max_gens=max_gens, shift_range=shift_range)
    g = random_closed_map(m.module, n.module,
                          closed_map_kernel(m.module, n.module, 0), rng)
    h = random_closed_map(n.module, m.module,
                          closed_map_kernel(n.module, m.module, 0), rng)
    return m, n, g, h
