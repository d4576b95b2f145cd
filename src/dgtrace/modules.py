"""Finitely generated semi-free dg modules and their explicit realizations.

A semi-free module over A is a list of generators g_i with shifts s_i (the
summand A[s_i], so g_i sits in degree -s_i) plus a twisting matrix delta with
entries in A:

    D(g_i) = sum_{j > i} delta[j][i] g_j,      |delta[j][i]| = 1 + s_j - s_i.

Strict triangularity in the declared generator order (entries only below the
diagonal) is the iterated-cone filtration.  Module maps are matrices over A,
phi(g_i) = sum_j phi[j][i] h_j with |phi[j][i]| = deg(phi) + t_j - s_i, and
compose by (psi . phi)[l][i] = sum_j +- phi[j][i] * psi[l][j] (entries of the
first-applied map multiply on the left).

Every matrix over A (twists, maps, idempotents) is stored by sparse
columns: column i lists (j, vec) for the nonzero entries [j][i], j
ascending, each vec the nonzero coordinates of the entry in index order
(the `SparseVec` idiom of `DgAlgebra.mult`), each coordinate a stored
scalar: an int when integral, else a Fraction.  The form is unique, so
comparisons of columns are exact.  Grids of `AlgebraElement`s are taken and
given only at the API boundary: `SemiFreeModule(..., twist)` and
`ModuleMap(..., entries)` convert them once; `.twist` / `.entries` are dense
views of Fraction coordinates, built on first use for callers outside the
package, which no kernel here reads.

Each invariant is checked once, where data enters: `SemiFreeModule.validate`
(triangularity, entry degrees, D^2 = 0 over A) and `ModuleMap.validate`
(entry degrees) own them and the grid constructors always call them.
`from_columns` trusts its caller, and the builders make their output out of
checked pieces through the one unchecked constructor, `built_module`.  So
every entry is homogeneous of the degree its shifts fix, and every Koszul
sign reads an entry's degree from the shifts, not from its coordinates:
|phi[j][i]| = deg(phi) + t_j - s_i, and |delta[j][i]| = 1 + s_j - s_i.

`PerfectModule.endomorphism(f)` admits a map of the summand: degree 0,
on the module, valid entry degrees and e f e = f through
`PerfectModule.compress`, which copies f where e fixes a generator (a
unit column whose row is otherwise clear) and composes through
`_compose_column` only on the generators e moves.  A map has one mark,
`drawn_from`: the `PerfectModule` whose `sampling.EndoSampler` drew it.
The draw is a sum of vectors of the exact kernel of d, compressed to
e f e, so it is a closed degree-0 endomorphism of that summand by
construction, and that summand's `endomorphism` (and
`hochschild.hh_class`'s closedness check) takes it without a check.
`ModuleMap._init` clears the mark and the draw alone sets it, so every
other map (sums, scales, products, `from_columns` rebuilds, boundary
input, a draw handed to another summand) is checked in full.

Everything that is really done over k (Hom, tensor, cohomology) is
reduced on demand to explicit complexes of rational matrices ("restriction
to the ground field"); derived tensor and Hom are computed on the given
semi-free presentations, no resolution search.  An explicit module is a set
of generators over one shared base table: its keys are (i, u), and
e_t . (i, u) = sum c (i, u2) over table[(t, u)], so a realization of a
semi-free module keeps `mult` itself, whatever its rank.  `ExplicitModule.act`
is the one reader of a table.

Every realization (`ExplicitModule`, `TensorOverAlgebra`, `HomOverAlgebra`)
is a `SplitComplex`: its keys, its differential by keyed columns
(`d_columns`) and the projector that cuts out the summand of a perfect
module (None for a plain one), built from the idempotents given to the
constructor.  A tensor or Hom reads the keyed columns of the realization
it is built on; the matrix complex `carrier` is assembled on first read.
"""

from __future__ import annotations

import copy
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .algebras import (AlgebraElement, DgAlgebra, SparseVec, opposite, sparse,
                       tensor_algebras)
from .complexes import (ChainMap, SplitComplex, key_columns, keyed_blocks,
                        keyed_columns)
from .errors import (AlgebraMismatch, DegreeViolation, DimensionMismatch,
                     DifferentialSquareViolation, IdempotentIncompatible,
                     NotClosed, NotDegreeZeroConcentrated, TriangularityViolation,
                     WrongDegree)
from .linalg import ZERO, _canon

Entry = AlgebraElement
# column i of a matrix over A: (j, nonzero coordinates of entry [j][i]), j
# ascending
Column = Tuple[Tuple[int, SparseVec], ...]


def _grid_columns(a: DgAlgebra, rows: Sequence[Sequence[Entry]], nrows: int,
                  ncols: int, shape: str) -> Tuple[Column, ...]:
    """The columns of an nrows x ncols matrix over A given as a grid of
    elements of A: the one conversion in from the API boundary.  An entry
    over another algebra raises, even when its dimension fits."""
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise DimensionMismatch(shape)
    if not all(b.same_structure(a) for b in {x.algebra for row in rows for x in row}):
        raise AlgebraMismatch("matrix entry over a different algebra")
    return tuple(tuple((j, vec) for j, row in enumerate(rows)
                       if (vec := sparse(row[i].coords)))
                 for i in range(ncols))


def _dense(a: DgAlgebra, columns: Sequence[Column], nrows: int):
    """The grid of elements of a matrix stored by columns (boundary view)."""
    zero = a.zero()
    rows = [[zero] * len(columns) for _ in range(nrows)]
    for i, col in enumerate(columns):
        for j, vec in col:
            coords = [ZERO] * a.dim
            for t, c in vec:
                coords[t] = c
            rows[j][i] = AlgebraElement(a, tuple(coords))
    return tuple(tuple(row) for row in rows)


def _coords(acc: Dict[int, List], j: int, n: int) -> List:
    """The accumulator of row j, a zero list of length n made only when
    the row is first touched."""
    coords = acc.get(j)
    if coords is None:
        coords = acc[j] = [0] * n
    return coords


def _column(acc: Dict[int, Sequence]) -> Column:
    """A column from dense accumulators {row: coords}; zero entries dropped."""
    return tuple((j, vec) for j in sorted(acc) if (vec := sparse(acc[j])))


def _add_columns(a: DgAlgebra, x: Sequence[Column],
                 y: Sequence[Column]) -> List[Column]:
    out = []
    for cx, cy in zip(x, y):
        acc: Dict[int, List] = {}
        for j, vec in cx + cy:
            coords = _coords(acc, j, a.dim)
            for t, c in vec:
                coords[t] += c
        out.append(_column(acc))
    return out


def _scale_columns(columns: Sequence[Column], c) -> Tuple[Column, ...]:
    """Every entry times the nonzero scalar c."""
    return tuple(tuple((j, tuple((t, _canon(c * x)) for t, x in vec)) for j, vec in col)
                 for col in columns)


def _offset(col: Column, k: int) -> Column:
    """The column with its rows moved down by k."""
    return tuple((k + j, vec) for j, vec in col)


def _compose_column(a: DgAlgebra, acc: Dict, col: Column, shifts, offset: int,
                    psi: Sequence[Column], psi_degree: int, flip: int) -> Dict:
    """Add sum_j (-1)^{flip + |psi| |phi[j][i]|} phi[j][i] * psi[l][j] to the
    rows l of acc, for col = column i of phi, |phi[j][i]| = offset + shifts[j]:
    the one composite kernel, for `compose`, `differential` and
    `PerfectModule.compress`."""
    odd = psi_degree % 2
    for j, u in col:
        if flip ^ (odd and (offset + shifts[j]) % 2):
            u = _neg(u)
        for l, v in psi[j]:
            a.add_product(_coords(acc, l, a.dim), u, v)
    return acc


def rows_of(columns: Sequence[Column], nrows: int) -> List[List]:
    """Per row j, its nonzero entries as (i, vec), i ascending."""
    rows: List[List] = [[] for _ in range(nrows)]
    for i, col in enumerate(columns):
        for j, vec in col:
            rows[j].append((i, vec))
    return rows


def _neg(vec: SparseVec) -> SparseVec:
    return tuple((t, -c) for t, c in vec)


def _images(columns: Sequence[Column]):
    """Per generator i, its image sum_j phi[j][i] g_j over the keys (j, t)."""
    return [[((j, t), c) for j, vec in col for t, c in vec] for col in columns]


def _key_basis(shifts: Sequence[int], keys: Dict[int, List], sign: int):
    """Generator x key basis: (i, u) in degree deg(u) + sign * s_i, ordered
    by generator and then by key position."""
    basis: Dict[int, List] = {}
    for i, s in enumerate(shifts):
        for p, ks in keys.items():
            basis.setdefault(p + sign * s, []).extend((i, u) for u in ks)
    return basis


class SemiFreeModule:
    """Semi-free left module: shifted free generators plus a strict twist,
    stored by columns (`twist_columns`)."""

    def __init__(self, algebra: DgAlgebra, shifts: Sequence[int],
                 twist: Optional[Sequence[Sequence[Entry]]] = None):
        n = len(shifts)
        columns = ((),) * n if twist is None else _grid_columns(
            algebra, twist, n, n, "twist must be a square generator matrix")
        self._init(algebra, shifts, columns)
        self.validate()

    @classmethod
    def from_columns(cls, algebra: DgAlgebra, shifts: Sequence[int],
                     columns: Sequence[Column]) -> "SemiFreeModule":
        m = cls.__new__(cls)
        m._init(algebra, shifts, columns)
        return m

    def _init(self, algebra, shifts, columns):
        self.algebra = algebra
        self.shifts = tuple(int(s) for s in shifts)
        self.twist_columns = tuple(map(tuple, columns))
        self._explicit: Optional[ExplicitModule] = None

    @property
    def rank(self) -> int:
        return len(self.shifts)

    @cached_property
    def twist(self):
        """The twist as a grid of elements (boundary view)."""
        return _dense(self.algebra, self.twist_columns, self.rank)

    def validate(self) -> "SemiFreeModule":
        """Strict triangularity, entry degrees and D^2 = 0 of the twist."""
        degrees = self.algebra.degrees
        for i, col in enumerate(self.twist_columns):
            for j, vec in col:
                if j <= i:
                    raise TriangularityViolation(
                        f"twist entry at ({j},{i}) breaks the generator filtration")
                want = 1 + self.shifts[j] - self.shifts[i]
                if any(degrees[t] != want for t, _ in vec):
                    raise DegreeViolation(
                        f"twist entry ({j},{i}) must be homogeneous of degree {want}")
        if not any(self.twist_columns):
            return self  # delta = 0 squares to zero
        # D^2(g_i) = sum_l (d(delta_li) + sum_j (-1)^{|delta_ji|} delta_ji
        # delta_lj) g_l, which is d(delta) - delta . delta for the twist as a
        # degree-1 map
        delta = ModuleMap.from_columns(self, self, 1, self.twist_columns)
        if not (delta.differential() - delta.compose(delta)).is_zero():
            raise DifferentialSquareViolation("in the module twist")
        return self

    def to_explicit(self) -> "ExplicitModule":
        if self._explicit is None:
            self._explicit = ExplicitModule.from_semifree(self)
        return self._explicit

    def __eq__(self, other):
        return (isinstance(other, SemiFreeModule)
                and self.algebra.same_structure(other.algebra)
                and self.shifts == other.shifts
                and self.twist_columns == other.twist_columns)

    def __repr__(self):
        return f"SemiFreeModule(rank={self.rank}, shifts={self.shifts})"


class ExplicitModule(SplitComplex):
    """k-level realization: a complex on keys (i, u), a generator i over a
    key u of one base table shared by every generator, and the projector of
    a summand (None for the whole module).

    `basis[p]` lists the keys of degree p in order and `d_columns` holds
    the differential by keyed columns; e_t . (i, u) is the sum of c (i, u2)
    over the (u2, c) of `table[(t, u)]`, and pairs with zero product are
    absent, the way `DgAlgebra.mult` holds the products of basis elements
    (a realization of a semi-free module keeps `mult` itself).
    """

    def __init__(self, algebra: DgAlgebra, basis: Dict[int, List],
                 d_columns: Optional[Dict], table: Dict[Tuple, Sequence],
                 projector: Optional[ChainMap] = None):
        super().__init__(basis, projector)
        self.algebra = algebra
        self.d_columns = d_columns
        self.table = table

    def act(self, vec: SparseVec, key) -> List:
        """x . key for the element x with nonzero coordinates vec, as a list
        of (key, coefficient); terms are not merged.  The one reader of the
        table."""
        i, u = key
        table = self.table
        return [((i, u2), ct * c) for t, ct in vec for u2, c in table.get((t, u), ())]

    @classmethod
    def from_semifree(cls, m: SemiFreeModule) -> "ExplicitModule":
        a = m.algebra
        by_degree: Dict[int, List] = {}
        for b in range(a.dim):
            by_degree.setdefault(a.degrees[b], []).append(b)
        ex = cls(a, _key_basis(m.shifts, by_degree, -1), None, a.mult)
        # D(e_b g_i) = (-1)^{|e_b|} (e_b delta_ji) g_j + d(e_b) g_i: the
        # twist restricted as a degree-1 map, plus d_A on every summand
        twist = _restriction(ex, 1, _images(m.twist_columns))

        def image(key):
            i, b = key
            return twist(key) + [((i, b2), c) for b2, c in a.diff.get(b, ())]
        ex.d_columns = keyed_columns(ex.basis, ex.pos, 1, image)
        return ex


def _restriction(target: ExplicitModule, degree: int, images):
    """The image, for the assembler, of the degree-n map out of the
    realization of a semi-free module that sends g_i to images[i], a list
    of (target key, coeff), into the realization `target`:
    e_b g_i -> (-1)^{n|b|} sum coeff e_b . key.  The one restriction
    kernel."""
    degrees = target.algebra.degrees
    act = target.act

    def image(key):
        i, b = key
        odd = (degree * degrees[b]) % 2
        return [term for k, coeff in images[i]
                for term in act(((b, -coeff if odd else coeff),), k)]
    return image


class ModuleMap:
    """Matrix over A realizing a graded map of semi-free modules, stored by
    columns: `columns[i]` holds the entries phi[j][i] of the image of g_i."""

    def __init__(self, source: SemiFreeModule, target: SemiFreeModule,
                 degree: int, entries: Sequence[Sequence[Entry]]):
        self._init(source, target, degree, _grid_columns(
            source.algebra, entries, target.rank, source.rank,
            "map matrix must be target-rank x source-rank"))
        self.validate()

    @classmethod
    def from_columns(cls, source: SemiFreeModule, target: SemiFreeModule,
                     degree: int, columns: Sequence[Column]) -> "ModuleMap":
        phi = cls.__new__(cls)
        phi._init(source, target, degree, columns)
        return phi

    def _init(self, source, target, degree, columns):
        if not source.algebra.same_structure(target.algebra):
            raise AlgebraMismatch("module map across different algebras")
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.columns = tuple(map(tuple, columns))
        # the summand whose `EndoSampler` drew this map, which vouches for it
        self.drawn_from: Optional[PerfectModule] = None

    def validate(self) -> "ModuleMap":
        """Every entry [j][i] homogeneous of degree deg + t_j - s_i."""
        degrees = self.source.algebra.degrees
        for i, col in enumerate(self.columns):
            for j, vec in col:
                want = self.degree + self.target.shifts[j] - self.source.shifts[i]
                if any(degrees[t] != want for t, _ in vec):
                    raise DegreeViolation(
                        f"map entry ({j},{i}) must have degree {want}")
        return self

    @classmethod
    def identity(cls, m: SemiFreeModule) -> "ModuleMap":
        unit = sparse(m.algebra.unit)
        return cls.from_columns(m, m, 0, [((i, unit),) for i in range(m.rank)])

    @classmethod
    def zero(cls, source: SemiFreeModule, target: SemiFreeModule,
             degree: int = 0) -> "ModuleMap":
        return cls.from_columns(source, target, degree, ((),) * source.rank)

    @cached_property
    def entries(self):
        """The matrix as a grid of elements (boundary view)."""
        return _dense(self.source.algebra, self.columns, self.target.rank)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if self.degree != other.degree:
            raise WrongDegree("adding module maps of different degrees")
        return ModuleMap.from_columns(
            self.source, self.target, self.degree,
            _add_columns(self.source.algebra, self.columns, other.columns))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "ModuleMap":
        c = _canon(c)
        columns = _scale_columns(self.columns, c) if c else ((),) * self.source.rank
        return ModuleMap.from_columns(self.source, self.target, self.degree,
                                      columns)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self . other, other applied first: entry (l, i) is
        sum_j (-1)^{|self| |other[j][i]|} other[j][i] * self[l][j]."""
        if other.target is not self.source and other.target != self.source:
            raise DimensionMismatch("module map composition mismatch")
        ts, ss = other.target.shifts, other.source.shifts
        a = self.source.algebra
        columns = [_column(_compose_column(a, {}, col, ts, other.degree - ss[i],
                                           self.columns, self.degree, 0))
                   for i, col in enumerate(other.columns)]
        return ModuleMap.from_columns(other.source, self.target,
                                      self.degree + other.degree, columns)

    def differential(self) -> "ModuleMap":
        """d(phi) = D_N . phi - (-1)^{|phi|} phi . D_M at the matrix level: d_A
        on each entry, then both composites with the twists through
        `_compose_column`, the second's -(-1)^{|phi|} as its flip.  With
        d_A = 0 and no twist on either side it is zero."""
        a = self.source.algebra
        n = self.degree
        twist_n = self.target.twist_columns
        if not a.diff and not any(twist_n) and not any(self.source.twist_columns):
            return ModuleMap.zero(self.source, self.target, n + 1)
        ts, ss = self.target.shifts, self.source.shifts
        columns = []
        for i, (col, twist_col) in enumerate(zip(self.columns,
                                                 self.source.twist_columns)):
            acc: Dict[int, List] = {}
            for l, v in col:
                for t, c in v:
                    for k, ck in a.diff.get(t, ()):
                        _coords(acc, l, a.dim)[k] += c * ck
            _compose_column(a, acc, col, ts, n - ss[i], twist_n, 1, 0)
            columns.append(_column(_compose_column(
                a, acc, twist_col, ss, 1 - ss[i], self.columns, n, (n + 1) % 2)))
        return ModuleMap.from_columns(self.source, self.target, n + 1, columns)

    def is_closed(self) -> bool:
        return self.differential().is_zero()

    def restrict(self) -> ChainMap:
        """Induced chain map between the explicit realizations."""
        return semifree_map_to_explicit(self.source, self.target.to_explicit(),
                                        self.degree, _images(self.columns))

    def __eq__(self, other):
        return (isinstance(other, ModuleMap) and self.degree == other.degree
                and self.source == other.source and self.target == other.target
                and self.columns == other.columns)

    def __repr__(self):
        return f"ModuleMap(degree={self.degree}, {self.source.rank}->{self.target.rank})"


class PerfectModule:
    """The summand of a semi-free module cut out by an optional exact
    chain-level idempotent e, and the owner of its contract: `validate`
    checks e, and `endomorphism` admits the maps of the summand."""

    def __init__(self, module: SemiFreeModule, idempotent: Optional[ModuleMap] = None):
        self.module = module
        self.idempotent = idempotent
        self.validate()

    def validate(self) -> "PerfectModule":
        """e, when present, is a closed degree-0 endomorphism with e . e = e."""
        e = self.idempotent
        if e is not None:
            if not e.source == self.module == e.target:
                raise DimensionMismatch("idempotent must be an endomorphism")
            if e.degree != 0:
                raise WrongDegree("idempotent must have degree 0")
            if not e.is_closed():
                raise NotClosed("idempotent must be closed")
            if e.compose(e) != e:
                raise IdempotentIncompatible("idempotent is not exact (e.e != e)")
        return self

    def endomorphism(self, f: ModuleMap) -> ModuleMap:
        """f, when it is an endomorphism of the summand: degree 0, on the
        module, entry degrees valid, and e f e = f through `compress`.  A
        draw of this summand's sampler (`f.drawn_from is self`) is one by
        construction and comes back at once.  Closedness is the caller's."""
        if f.drawn_from is self:
            return f
        if f.degree != 0:
            raise WrongDegree("an endomorphism of the summand has degree 0")
        if not f.source == self.module == f.target:
            raise DimensionMismatch("map is not an endomorphism of the module")
        f.validate()
        g = self.compress(f)
        if g is not f and g != f:
            raise IdempotentIncompatible("endomorphism does not factor through e")
        return f

    @property
    def algebra(self) -> DgAlgebra:
        return self.module.algebra

    @property
    def rank(self) -> int:
        return self.module.rank

    @property
    def shifts(self):
        return self.module.shifts

    def identity_map(self) -> ModuleMap:
        """Chain representative of the identity of the summand."""
        e = self.idempotent
        return ModuleMap.identity(self.module) if e is None else e

    def compress(self, f: ModuleMap) -> ModuleMap:
        """e . f . e; e itself comes back as it is, since e e e = e, so
        `euler_class` composes nothing on a summand.

        e fixes g_i when its column i is the unit at row i and no other
        column of e has an entry in row i; then column i of f . e is
        column i of f, and row i of e . h is row i of h, so e f e is f on
        the fixed x fixed block and those entries are copied.  The rest go
        through `_compose_column`, with e's columns on the moved rows as
        psi (a moved column has no entry in a fixed row, by the row rule).
        The split is read off e on each call."""
        e = self.idempotent
        if e is None or f is e:
            return f
        m = e.source
        if (f.target is not m and f.target != m
                or f.source is not m and f.source != m):
            raise DimensionMismatch("module map composition mismatch")
        a = m.algebra
        unit = sparse(a.unit)
        moved = [col != ((i, unit),) for i, col in enumerate(e.columns)]
        for i, col in enumerate(e.columns):
            for j, _ in col:
                if j != i:
                    moved[j] = True
        psi = [col if move else () for col, move in zip(e.columns, moved)]
        shifts, n = m.shifts, f.degree
        columns = []
        for i, col in enumerate(f.columns):
            if moved[i]:  # column i of f . e
                col = _column(_compose_column(a, {}, e.columns[i], shifts,
                                              -shifts[i], f.columns, n, 0))
            entries = {j: u for j, u in col if not moved[j]}
            acc = _compose_column(a, {}, col, shifts, n - shifts[i], psi, 0, 0)
            entries.update((l, vec) for l, coords in acc.items()
                           if (vec := sparse(coords)))
            columns.append(tuple(sorted(entries.items())))
        return ModuleMap.from_columns(m, e.target, n, columns)

    def __eq__(self, other):
        return (isinstance(other, PerfectModule) and self.module == other.module
                and self.idempotent == other.idempotent)

    def __repr__(self):
        tag = "+e" if self.idempotent is not None else ""
        return f"PerfectModule(rank={self.rank}{tag})"


def free_module(a: DgAlgebra, shifts: Sequence[int]) -> PerfectModule:
    """Direct sum of shifted copies of A, zero twist."""
    return PerfectModule(SemiFreeModule(a, shifts))


def projective_module(a: DgAlgebra, idem: AlgebraElement,
                      shift: int = 0) -> PerfectModule:
    """Image of right multiplication by an idempotent on a rank-1 free module
    (e.g. the summand A.e of A), memoised on the algebra per (coordinates
    of the idempotent, shift).  An input that is not an idempotent of `a`
    raises and is not stored."""
    if not idem.algebra.same_structure(a):
        raise AlgebraMismatch("idempotent of another algebra")
    key = (idem.coords, int(shift))
    p = a._projectives.get(key)
    if p is None:
        m = SemiFreeModule(a, [shift])
        p = a._projectives[key] = PerfectModule(m, ModuleMap(m, m, 0, [[idem]]))
    return p


def built_module(algebra: DgAlgebra, shifts: Sequence[int],
                 twist_columns: Sequence[Column],
                 idempotent_columns: Optional[Sequence[Column]] = None
                 ) -> PerfectModule:
    """The output of a builder, made out of checked pieces: the one
    `PerfectModule` made without `validate`, trusting its columns."""
    p = PerfectModule.__new__(PerfectModule)
    p.module = m = SemiFreeModule.from_columns(algebra, shifts, twist_columns)
    p.idempotent = (None if idempotent_columns is None
                    else ModuleMap.from_columns(m, m, 0, idempotent_columns))
    return p


def cone_module(p: ModuleMap) -> PerfectModule:
    """Cone of a closed degree-0 map between plain semi-free modules:
    source generators shifted down one degree, then target generators,
    twist [[-delta_L, 0], [p, delta_M]]."""
    if p.degree != 0:
        raise WrongDegree("cone needs a degree-0 map")
    if not p.is_closed():
        raise NotClosed("cone needs a closed map")
    L, M = p.source, p.target
    shifts = [s + 1 for s in L.shifts] + list(M.shifts)
    nl = L.rank
    tw = [col + _offset(pcol, nl) for col, pcol in
          zip(_scale_columns(L.twist_columns, -1), p.columns)]
    tw += [_offset(col, nl) for col in M.twist_columns]
    return built_module(L.algebra, shifts, tw)


def direct_sum_modules(p1: PerfectModule, p2: PerfectModule) -> PerfectModule:
    m1, m2 = p1.module, p2.module
    a = m1.algebra
    if not a.same_structure(m2.algebra):
        raise AlgebraMismatch("direct sum across different algebras")
    shifts = list(m1.shifts) + list(m2.shifts)
    idem = None
    if p1.idempotent is not None or p2.idempotent is not None:
        idem = _block_diagonal(p1.identity_map().columns,
                               p2.identity_map().columns)
    return built_module(a, shifts, _block_diagonal(
        m1.twist_columns, m2.twist_columns), idem)


def _block_diagonal(x: Sequence[Column], y: Sequence[Column]) -> List[Column]:
    """The columns of the square matrix [[x, 0], [0, y]] over A."""
    return list(x) + [_offset(col, len(x)) for col in y]


def restrict_to_ground(p: PerfectModule) -> ExplicitModule:
    """The realization of p's semi-free module, carrying the restricted
    idempotent as its projector: the memoised realization itself when
    there is none, else a copy sharing its keys, table and complex.  The
    idempotent is restricted first, which assembles the complex, so the
    copy shares it."""
    ex = p.module.to_explicit()
    if p.idempotent is None:
        return ex
    projector = p.idempotent.restrict()
    summand = copy.copy(ex)
    summand.projector = projector
    return summand


# ---------------------------------------------------------------------------
# Restriction of a bimodule to one tensor factor
# ---------------------------------------------------------------------------

def restrict_to_factor(p: PerfectModule, f1: DgAlgebra, f2: DgAlgebra,
                       side: str) -> PerfectModule:
    """View a module over f1 (x) f2 as a semi-free module over one factor.

    side="first": generators (i, q) = (1 (x) beta_q) g_i over f1;
    side="second": generators (i, p) = (alpha_p (x) 1) g_i over f2.
    Generator (i, q) is number i n + q, n the dimension of the other
    factor.  Product algebras concentrated in degree 0 only; p over an
    algebra that is not tensor_algebras(f1, f2) in structure raises.
    """
    big = p.module.algebra
    if not big.is_degree_zero():
        raise NotDegreeZeroConcentrated("factor restriction needs degree-0 algebras")
    if not big.same_structure(tensor_algebras(f1, f2)):
        raise AlgebraMismatch("module is not over the tensor of the factors")
    n2 = f2.dim
    m = p.module
    small, other = (f1, f2) if side == "first" else (f2, f1)
    n = other.dim

    def expand(columns: Sequence[Column]) -> List[Column]:
        """Column (i, q) holds (1 (x) beta_q) * entry (side first) or
        (alpha_q (x) 1) * entry (side second) of each entry [j][i],
        expanded over the small algebra into the rows (j, u)."""
        out = []
        for col in columns:
            for row_q in other.rows:
                acc: Dict[int, List] = {}
                for j, vec in col:
                    for flat, c in vec:
                        # side first: (1 (x) b_q)(a_pa (x) b_qb) = a_pa (x) (b_q *f2 b_qb)
                        pa, qb = divmod(flat, n2)
                        s, o = (pa, qb) if side == "first" else (qb, pa)
                        for u, cu in row_q.get(o, ()):
                            _coords(acc, j * n + u, small.dim)[s] += c * cu
                out.append(_column(acc))
        return out

    idem = None if p.idempotent is None else expand(p.idempotent.columns)
    return built_module(small, [s for s in m.shifts for _ in range(n)],
                        expand(m.twist_columns), idem)


def right_multiplication_map(restricted: PerfectModule, f2: DgAlgebra,
                             t: int) -> ModuleMap:
    """Right multiplication by the basis element b_t of f2 on a module over
    f1 (x) f2^\\op, restricted to f1 (side="first" restriction).

    The action of (1 (x) b_t) sends (1 (x) b_q) g_i to (1 (x) b_t b_q) g_i,
    the product taken in f2 (already the opposite of the second tensor
    slot), i.e. genuine right multiplication by b_t.
    """
    unit = sparse(restricted.algebra.unit)
    n = f2.dim
    row_t = f2.rows[t]
    columns = [tuple((i * n + u, tuple((k, _canon(cu * x)) for k, x in unit))
                     for u, cu in row_t.get(q, ()))
               for i in range(restricted.rank // n) for q in range(n)]
    return ModuleMap.from_columns(restricted.module, restricted.module, 0,
                                  columns)


# ---------------------------------------------------------------------------
# Outer tensor of modules over different algebras
# ---------------------------------------------------------------------------

def outer_tensor_columns(x: Sequence[Column], y: Sequence[Column],
                         ns: int) -> List[Column]:
    """The columns of x (x) y over tensor_algebras(R, S), dim S = ns, on the
    generators (i, j) numbered i len(y) + j: entry (i2, j2), (i, j) is
    x[i2][i] (x) y[j2][j], the coordinate u_p v_q at flat index p*ns + q."""
    ny = len(y)
    return [tuple((i2 * ny + j2, tuple((p * ns + q, _canon(cu * cv))
                                       for p, cu in u for q, cv in v))
                  for i2, u in xi for j2, v in yj)
            for xi in x for yj in y]


def outer_tensor_modules(p1: PerfectModule, p2: PerfectModule) -> PerfectModule:
    """m1 (x)_k m2 as a module over tensor_algebras(R, S).

    Generators (i, j) numbered i rank(m2) + j, shifts add, twist
    delta1 (x) 1 + diag((-1)^{s_i}) (x) delta2, idempotent e1 (x) e2.
    Degree-0 algebras only (the sign bookkeeping for graded coefficients is
    not carried here).
    """
    r, s = p1.algebra, p2.algebra
    if not (r.is_degree_zero() and s.is_degree_zero()):
        raise NotDegreeZeroConcentrated("outer tensor needs degree-0 algebras")
    prod = tensor_algebras(r, s)
    m1, m2 = p1.module, p2.module
    shifts = [s1 + s2 for s1 in m1.shifts for s2 in m2.shifts]
    unit = sparse(r.unit)
    signs = [((i, _neg(unit) if s1 % 2 else unit),) for i, s1 in enumerate(m1.shifts)]
    tw = _add_columns(
        prod, outer_tensor_columns(m1.twist_columns,
                                   ModuleMap.identity(m2).columns, s.dim),
        outer_tensor_columns(signs, m2.twist_columns, s.dim))
    idem = None
    if p1.idempotent is not None or p2.idempotent is not None:
        idem = outer_tensor_columns(p1.identity_map().columns,
                                    p2.identity_map().columns, s.dim)
    return built_module(prod, shifts, tw, idem)


# ---------------------------------------------------------------------------
# Tensor over the algebra
# ---------------------------------------------------------------------------

class TensorOverAlgebra(SplitComplex):
    """N (x)_A M realized by expanding the semi-free right factor M:
    basis (M-generator i, N-basis key u) in degree deg(u) - s_i.

    N enters through its explicit realization over A^op; the right action
    used for the balanced relation is u.a = (-1)^{|a||u|} (a acting in the
    A^op structure), which is genuine right multiplication on restrictions
    of right modules.  The projector is e_N (x) e, from the projector e_N
    of the left realization and an idempotent e of M, whichever are given.
    """

    def __init__(self, left: ExplicitModule, m: SemiFreeModule,
                 e: Optional[ModuleMap] = None):
        if not opposite(left.algebra).same_structure(m.algebra):
            raise AlgebraMismatch("left factor must live over the opposite algebra")
        super().__init__(_key_basis(m.shifts, left.basis, -1), None)
        self.left = left
        self.m = m
        d_left = left.d_columns
        shifts = m.shifts

        def image(key):
            i, u = key
            terms = [((i, u2), c) for u2, c in d_left[u].items()]
            odd = left.pos[u][0] % 2
            for j, vec in m.twist_columns[i]:
                terms += [((j, u2), c) for u2, c in self._right_act(
                    _neg(vec) if odd else vec, 1 + shifts[j] - shifts[i], u)]
            return terms
        self.d_columns = keyed_columns(self.basis, self.pos, 1, image)
        if left.projector is not None or e is not None:
            self.projector = self.map_tensor(left.projector, e)

    def _right_act(self, vec: SparseVec, de: int, u):
        """u . x with the right-module Koszul sign (-1)^{|x||u|}, for x of
        degree de with nonzero coordinates vec; terms are not merged."""
        if (self.left.pos[u][0] * de) % 2:
            vec = _neg(vec)
        return self.left.act(vec, u)

    def map_tensor(self, g: Optional[ChainMap], f: Optional[ModuleMap],
                   target: Optional["TensorOverAlgebra"] = None) -> ChainMap:
        """g (x) f into target (default self; same semi-free right factor),
        with g a chain map from the left realization to target's (None =
        id) and f a module map of M into itself (None = id)."""
        if target is None:
            target = self
        deg_g = g.degree if g is not None else 0
        deg_f = f.degree if f is not None else 0
        deg = deg_g + deg_f
        g_cols = (key_columns(g.block, deg_g, self.left.basis, target.left.basis)
                  if g is not None else None)
        shifts = self.m.shifts

        def image(key):
            i, u = key
            sgn = -1 if (deg_f * self.left.pos[u][0]) % 2 else 1
            terms = []
            for u2, cu in ([(u, 1)] if g is None else g_cols[u]):
                if f is None:
                    terms.append(((i, u2), sgn * cu))
                else:
                    for j, vec in f.columns[i]:
                        de = deg_f + shifts[j] - shifts[i]
                        terms += [((j, u3), sgn * cu * ce)
                                  for u3, ce in target._right_act(vec, de, u2)]
            return terms
        return ChainMap(self.carrier, target.carrier, deg,
                        keyed_blocks(self.basis, target.basis, target.pos, deg, image))


def tensor_over_algebra(n: PerfectModule, m: PerfectModule) -> TensorOverAlgebra:
    """Derived tensor N (x)_A M of a right module (over A^op) and a left
    module (over A), both on semi-free presentations.  Idempotents on either
    side induce a closed idempotent on the result."""
    return TensorOverAlgebra(restrict_to_ground(n), m.module, m.idempotent)


# ---------------------------------------------------------------------------
# Hom over the algebra
# ---------------------------------------------------------------------------

class HomOverAlgebra(SplitComplex):
    """Hom_A(M, X) for semi-free M and explicit X: basis (generator i, key u)
    with deg = deg(u) + s_i, differential
    d(phi)(g_i) = D_X(phi(g_i)) - (-1)^n sum_j +- delta_ji . phi(g_j).
    The projector is the compression phi -> e_X . phi . e, from the
    projector e_X of X and an idempotent e of M, whichever are given."""

    def __init__(self, m: SemiFreeModule, target: ExplicitModule,
                 e: Optional[ModuleMap] = None):
        if not m.algebra.same_structure(target.algebra):
            raise AlgebraMismatch("Hom across different algebras")
        super().__init__(_key_basis(m.shifts, target.basis, 1), None)
        self.m = m
        self.target = target
        d_target = target.d_columns
        # phi = (i, u) sends g_i to u; the twist row entries delta[i][i2]
        # feed g_{i2} for i2 < i.
        twist_rows = rows_of(m.twist_columns, m.rank)
        shifts = m.shifts

        def image(key):
            i, u = key
            n_deg = self.pos[key][0]
            terms = [((i, u2), c) for u2, c in d_target[u].items()]
            for i2, vec in twist_rows[i]:
                # the sign -(-1)^{n + n |delta|} folded into the entry,
                # |delta[i][i2]| = 1 + s_i - s_i2
                if (n_deg * (2 + shifts[i] - shifts[i2])) % 2 == 0:
                    vec = _neg(vec)
                terms += [((i2, u2), c) for u2, c in target.act(vec, u)]
            return terms
        self.d_columns = keyed_columns(self.basis, self.pos, 1, image)
        if e is not None:
            self.projector = self.precompose(e)
        if target.projector is not None:
            post = self.postcompose_into(self, target.projector)
            self.projector = post if e is None else post.compose(self.projector)

    def precompose(self, e: ModuleMap) -> ChainMap:
        """phi -> phi . e for a degree-0 map e of the source; Koszul sign
        (-1)^{n |e[j][i]|} with n the Hom degree and |e[j][i]| = s_j - s_i."""
        act = self.target.act
        e_rows = rows_of(e.columns, self.m.rank)
        shifts = self.m.shifts

        def image(key):
            j, u = key
            p = self.pos[key][0]
            terms = []
            for i, vec in e_rows[j]:
                odd = (p * (shifts[j] - shifts[i])) % 2
                terms += [((i, u2), c) for u2, c in act(_neg(vec) if odd else vec, u)]
            return terms
        return ChainMap(self.carrier, self.carrier, 0,
                        keyed_blocks(self.basis, self.basis, self.pos, 0, image))

    def postcompose_into(self, other: "HomOverAlgebra", g: ChainMap) -> ChainMap:
        """phi -> g . phi for a degree-0 chain map g: self.target ->
        other.target (same semi-free source; other may be self)."""
        g_cols = key_columns(g.block, 0, self.target.basis, other.target.basis)
        return ChainMap(self.carrier, other.carrier, 0, keyed_blocks(
            self.basis, other.basis, other.pos, 0,
            lambda key: [((key[0], u2), c) for u2, c in g_cols[key[1]]]))


def semifree_map_to_explicit(m: SemiFreeModule, target: ExplicitModule,
                             degree: int, values) -> ChainMap:
    """The degree-n map from the realization of a semi-free module to an
    explicit one sending g_i to values[i], a sparse (key, coeff) list (see
    _restriction); an image term off degree raises DegreeViolation.  The
    one restriction entry point."""
    ex = m.to_explicit()
    return ChainMap(ex.carrier, target.carrier, degree,
                    keyed_blocks(ex.basis, target.basis, target.pos, degree,
                                 _restriction(target, degree, values)))


def hom_over_algebra(m: PerfectModule, n: PerfectModule) -> HomOverAlgebra:
    """Hom_A(M, N) as an explicit complex; idempotents on either side induce
    the compression phi -> e_N . phi . e_M."""
    return HomOverAlgebra(m.module, restrict_to_ground(n), m.idempotent)
