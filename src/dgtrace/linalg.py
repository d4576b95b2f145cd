"""Exact linear algebra over arbitrary-precision rationals.

Everything downstream (cohomology, quotients, trace pairings) reduces to
ranks, kernels, images and solves of dense matrices over Q.  All pivoting is
first-nonzero-in-column order, so every basis this module produces is
deterministic and reproducible byte for byte.  No floating point anywhere.

>>> m = RationalMatrix.from_rows([[1, 2], [2, 4]])
>>> rank_kernel_image(m)[0]
1
>>> rank_kernel_image(m)[1].basis
((Fraction(-2, 1), Fraction(1, 1)),)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class RationalMatrix:
    """Dense matrix of rationals.  Immutable by convention: no method mutates
    `self`, and callers must never write into `entries`."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[Fraction]]):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(f"expected {rows}x{cols} entries")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(_frac(x) for x in r) for r in entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "RationalMatrix":
        if not cols:
            if nrows is None:
                raise DimensionMismatch("from_columns with no columns needs nrows")
            return cls.zeros(nrows, 0)
        n = len(cols[0])
        return cls(n, len(cols), [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows,
                              [[self.entries[i][j] for i in range(self.rows)]
                               for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return RationalMatrix(self.rows, self.cols,
                              [[a + b for a, b in zip(ra, rb)]
                               for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        return RationalMatrix(self.rows, self.cols,
                              [[c * x for x in row] for row in self.entries])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            srow = self.entries[i]
            orow = out[i]
            for k in range(self.cols):
                a = srow[k]
                if a:
                    brow = other.entries[k]
                    for j in range(other.cols):
                        if brow[j]:
                            orow[j] += a * brow[j]
        return RationalMatrix(self.rows, other.cols, out)

    def apply(self, vec: Sequence[Fraction]) -> tuple:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        out = [ZERO] * self.rows
        for j, v in enumerate(vec):
            if v:
                for i in range(self.rows):
                    e = self.entries[i][j]
                    if e:
                        out[i] += e * v
        return tuple(out)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SubspacePresentation:
    """Subspace of Q^ambient_dim given by a linearly independent basis."""

    ambient_dim: int
    basis: tuple

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise DimensionMismatch("basis vector of wrong length")

    @property
    def dim(self) -> int:
        return len(self.basis)


def _rref_inplace(rows: list, ncols: int) -> list:
    """Reduced row echelon form, first-nonzero pivoting.  Returns pivot
    column indices; `rows` is mutated and trimmed rows stay in place."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rr = rows[r]
            for j in range(c, ncols):
                if rr[j]:
                    rr[j] = rr[j] / piv
        rr = rows[r]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                if f:
                    ri = rows[i]
                    for j in range(c, ncols):
                        if rr[j]:
                            ri[j] -= f * rr[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(m: RationalMatrix):
    """(rref matrix, pivot columns) of m."""
    rows = [list(r) for r in m.entries]
    pivots = _rref_inplace(rows, m.cols)
    return RationalMatrix(m.rows, m.cols, rows), pivots


def rank_kernel_image(m: RationalMatrix):
    """Rank, kernel and column-space image of m, all exact.

    Kernel basis comes from the free columns of the reduced echelon form (one
    vector per free column, deterministic); image basis is the original pivot
    columns, so rank + dim kernel = cols and dim image = rank.
    """
    red, pivots = rref(m)
    rank = len(pivots)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    kernel_basis = []
    for f in free_cols:
        v = [ZERO] * m.cols
        v[f] = ONE
        for t, p in enumerate(pivots):
            v[p] = -red.entries[t][f]
        kernel_basis.append(tuple(v))
    image_basis = [m.column(p) for p in pivots]
    return (rank,
            SubspacePresentation(m.cols, tuple(kernel_basis)),
            SubspacePresentation(m.rows, tuple(image_basis)))


def rank_of(m: RationalMatrix) -> int:
    rows = [list(r) for r in m.entries]
    return len(_rref_inplace(rows, m.cols))


def solve(m: RationalMatrix, b: Sequence[Fraction]) -> Optional[tuple]:
    """One exact solution of m x = b, or None when b is outside the column
    span.  Free variables are set to zero, so the answer is deterministic."""
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side has wrong length")
    aug = [list(r) + [_frac(b[i])] for i, r in enumerate(m.entries)]
    pivots = _rref_inplace(aug, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ZERO] * m.cols
    for t, p in enumerate(pivots):
        x[p] = aug[t][m.cols]
    return tuple(x)


def solve_matrix(m: RationalMatrix, rhs: RationalMatrix) -> Optional[RationalMatrix]:
    """Solve m X = rhs column by column; None if any column is inconsistent."""
    cols = []
    for j in range(rhs.cols):
        x = solve(m, rhs.column(j))
        if x is None:
            return None
        cols.append(x)
    return RationalMatrix.from_columns(cols, nrows=m.cols)


def quotient_presentation(ambient_dim: int, sub: SubspacePresentation):
    """Present Q^ambient / sub as (proj, section).

    proj has full row rank ambient_dim - dim(sub) and kills sub exactly;
    section is a right inverse, proj @ section = identity on the quotient.
    Rows of proj are the canonical kernel basis of the matrix whose rows are
    the subspace basis, so the presentation is deterministic.
    """
    if sub.ambient_dim != ambient_dim:
        raise DimensionMismatch("subspace lives in a different ambient space")
    if sub.basis:
        w = RationalMatrix.from_rows([list(v) for v in sub.basis])
        _, ker, _ = rank_kernel_image(w)
        proj_rows = [list(v) for v in ker.basis]
    else:
        proj_rows = [list(r) for r in RationalMatrix.identity(ambient_dim).entries]
    proj = (RationalMatrix.from_rows(proj_rows) if proj_rows
            else RationalMatrix.zeros(0, ambient_dim))
    q = proj.rows
    section = solve_matrix(proj, RationalMatrix.identity(q))
    if section is None:  # cannot happen: proj has full row rank
        raise DimensionMismatch("quotient projection lost rank")
    return proj, section


def echelon_basis(vectors: Iterable[Sequence[Fraction]], ambient_dim: int) -> list:
    """Independent spanning subset of the vectors in echelon form, one row
    per pivot in pivot order, built incrementally (cheap for sparse input)."""
    echelon = []  # list of (pivot index, row) kept reduced
    for vec in vectors:
        row = [_frac(x) for x in vec]
        for p, er in echelon:
            f = row[p]
            if f:
                for j in range(p, ambient_dim):
                    if er[j]:
                        row[j] -= f * er[j]
        p = next((j for j, x in enumerate(row) if x), -1)
        if p >= 0:
            piv = row[p]
            if piv != 1:
                row = [x / piv for x in row]
            echelon.append((p, row))
            echelon.sort(key=lambda t: t[0])
    return [tuple(r) for _, r in echelon]


def span_dim(vectors: Iterable[Sequence[Fraction]], ambient_dim: int) -> int:
    """Dimension of the span."""
    return len(echelon_basis(vectors, ambient_dim))
