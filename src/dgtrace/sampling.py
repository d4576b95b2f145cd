"""Seeded random instances: modules, closed maps, verification batches.

Random perfect modules are built the way semi-free modules are defined:
cones of maps between shifted frees (any degree-compatible matrix between
frees is closed), optionally direct-summed with an idempotent-compressed
free.  Random closed endomorphisms are drawn from the exact kernel of the
entry-level closedness system, so every sample is closed on the nose.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebras import DgAlgebra, SparseVec
from .complexes import keyed_blocks, positions
from .errors import NotClosed
from .linalg import ONE, ZERO, RationalMatrix, rank_kernel_image
from .modules import (ModuleMap, PerfectModule, SemiFreeModule, rows_of,
                      cone_module, direct_sum_modules, free_module,
                      projective_module)
from .prng import SplitMix64

COEFF_POOL = (-2, -1, 0, 0, 1, 1, 2, 3)


def random_coeff(rng: SplitMix64) -> Fraction:
    return Fraction(COEFF_POOL[rng.below(len(COEFF_POOL))])


def _random_coordinates(a: DgAlgebra, degree: int, rng: SplitMix64) -> SparseVec:
    """The nonzero coordinates of a random element of the given degree: one
    random_coeff per basis element of that degree, in index order."""
    return tuple((i, c) for i in range(a.dim)
                 if a.degrees[i] == degree and (c := random_coeff(rng)))


def random_element_of_degree(a: DgAlgebra, degree: int, rng: SplitMix64):
    coords = [ZERO] * a.dim
    for i, c in _random_coordinates(a, degree, rng):
        coords[i] = c
    return a.element(coords)


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
    return ModuleMap.from_columns(src.module, tgt.module, 0, columns, check=False)


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


ColumnMap = Dict[Tuple[int, int, int], int]


def closed_map_kernel(src: SemiFreeModule, tgt: SemiFreeModule,
                      degree: int = 0) -> Tuple[ColumnMap, List[Tuple[Fraction, ...]]]:
    """The closed degree-`degree` maps src -> tgt in coordinates, solved at
    the entry level (degree-0 algebras): the column map (j, i, w) -> col of
    the coordinate of e_w in entry (j, i), and a basis of the kernel of the
    closedness system as vectors over those columns."""
    a = src.algebra
    coords: ColumnMap = {}
    for j in range(tgt.rank):
        for i in range(src.rank):
            want = degree + tgt.shifts[j] - src.shifts[i]
            for w in range(a.dim):
                if a.degrees[w] == want:
                    coords[(j, i, w)] = len(coords)
    if not coords:
        return coords, []
    # equations: the coordinates (l, i, x) of d(phi)[l][i] = 0, one column
    # per unknown coordinate e_w of entry (j, i)
    sgn = ONE if degree % 2 == 0 else -ONE
    rows_m = rows_of(src.twist_columns, src.rank)
    terms: Dict[Tuple[int, int, int], List] = {}
    for (j, i, w) in coords:
        out = terms[(j, i, w)] = []
        # + phi[j][i] * deltaN[l][j], in entry (l, i)
        for l, dn in tgt.twist_columns[j]:
            for t, ct in dn:
                out += [((l, i, x), ct * cx) for x, cx in a.mult.get((w, t), ())]
        # - (-1)^degree deltaM[i][i2] * phi[j][i], in entry (j, i2)
        for i2, dm in rows_m[i]:
            for t, ct in dm:
                out += [((j, i2, x), -sgn * ct * cx) for x, cx in a.mult.get((t, w), ())]
    equations = sorted({k for ts in terms.values() for k, _ in ts})
    system = keyed_blocks({0: list(coords)}, {0: equations},
                          positions({0: equations}), 0, terms.get)
    # no equations: every coordinate is free
    _, ker, _ = rank_kernel_image(system.get(0, RationalMatrix.zeros(0, len(coords))))
    return coords, list(ker.basis)


def _map_from_vector(src: SemiFreeModule, tgt: SemiFreeModule, degree: int,
                     coords: ColumnMap, vec: Sequence[Fraction]) -> ModuleMap:
    """The module map whose entry coordinates are vec read through the
    column map of closed_map_kernel."""
    cells: List[Dict[int, List]] = [{} for _ in range(src.rank)]
    for (j, i, w), col in coords.items():
        cv = vec[col]
        if cv:
            cells[i].setdefault(j, []).append((w, cv))
    columns = [tuple((j, tuple(sorted(cell[j]))) for j in sorted(cell))
               for cell in cells]
    return ModuleMap.from_columns(src, tgt, degree, columns, check=False)


def closed_map_basis(src: SemiFreeModule, tgt: SemiFreeModule,
                     degree: int = 0) -> List[ModuleMap]:
    """Basis of the closed degree-`degree` maps src -> tgt, solved at the
    entry level (degree-0 algebras)."""
    coords, vectors = closed_map_kernel(src, tgt, degree)
    return [_map_from_vector(src, tgt, degree, coords, v) for v in vectors]


def random_closed_map(src: SemiFreeModule, tgt: SemiFreeModule, coords: ColumnMap,
                      vectors: Sequence[Sequence[Fraction]],
                      rng: SplitMix64) -> Optional[ModuleMap]:
    """A random closed degree-0 map from a kernel of closed_map_kernel:
    sum_k c_k v_k with one random_coeff per vector, in order, then unpacked
    once; a random basis vector when every c_k is 0; None for an empty
    kernel."""
    if not vectors:
        return None
    total = None
    for vec in vectors:
        c = random_coeff(rng)
        if c:
            if total is None:
                total = [ZERO] * len(vec)
            for col, x in enumerate(vec):
                if x:
                    total[col] += c * x
    if total is None:
        total = vectors[rng.below(len(vectors))]
    return _map_from_vector(src, tgt, 0, coords, total)


class EndoSampler:
    """Closed endomorphisms of a fixed perfect module, kernel solved once."""

    def __init__(self, p: PerfectModule):
        self.module = p
        self.coords, self.vectors = closed_map_kernel(p.module, p.module, 0)

    def draw(self, rng: SplitMix64) -> ModuleMap:
        f = random_closed_map(self.module.module, self.module.module,
                              self.coords, self.vectors, rng)
        if f is None:
            raise NotClosed("module admits no closed endomorphisms")
        return self.module.compress(f)


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
    gs = closed_map_kernel(m.module, n.module, 0)
    hs = closed_map_kernel(n.module, m.module, 0)
    g = random_closed_map(m.module, n.module, *gs, rng)
    h = random_closed_map(n.module, m.module, *hs, rng)
    if g is None:
        g = ModuleMap.zero(m.module, n.module)
    if h is None:
        h = ModuleMap.zero(n.module, m.module)
    return m, n, g, h
