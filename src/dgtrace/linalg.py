"""Exact linear algebra over arbitrary-precision rationals.

Everything downstream (cohomology, quotients, trace pairings) reduces to
ranks, kernels, images and solves over Q.  One routine does all the row
reduction: it takes the rows one at a time, reduces each against the pivot
rows found so far on its nonzeros only, and keeps the result in reduced row
echelon form.  That form depends only on the row space, so every basis this
module produces is deterministic and reproducible byte for byte.  No
floating point anywhere.

>>> m = RationalMatrix.from_rows([[1, 2], [2, 4]])
>>> rank_kernel_image(m)[0]
1
>>> rank_kernel_image(m)[1].basis
((Fraction(-2, 1), Fraction(1, 1)),)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DimensionMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class RationalMatrix:
    """Dense matrix of rationals.  Immutable by convention: no method mutates
    `self`, and callers must never write into `entries`.  The constructor
    takes `Fraction` entries as they are; `from_rows` and `from_columns`
    convert caller data."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[Fraction]]):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(f"expected {rows}x{cols} entries")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(r) for r in entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, [[_frac(x) for x in row] for row in rows])

    @classmethod
    def from_sparse_columns(cls, nrows: int,
                            columns: Sequence[Mapping[int, Fraction]]) -> "RationalMatrix":
        """The nrows x len(columns) matrix whose column c holds columns[c],
        a {row: value} map of `Fraction`s taken as they are: the one
        constructor of the builders, which never see the layout."""
        rows = [[ZERO] * len(columns) for _ in range(nrows)]
        for c, col in enumerate(columns):
            for r, x in col.items():
                rows[r][c] = x
        for r in range(nrows):  # one row at a time: never two grids alive
            rows[r] = tuple(rows[r])
        return cls(nrows, len(columns), rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "RationalMatrix":
        if nrows is None:
            if not cols:
                raise DimensionMismatch("from_columns with no columns needs nrows")
            nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise DimensionMismatch(f"every column must have length {nrows}")
        return cls(nrows, len(cols), [[_frac(c[i]) for c in cols] for i in range(nrows)])

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def sparse_columns(self) -> list:
        """Per column, its nonzero entries as {row: value}, rows ascending:
        the one reader of the builders, the inverse of
        `from_sparse_columns`."""
        cols = [{} for _ in range(self.cols)]
        for r, row in enumerate(self.entries):
            for c, x in enumerate(row):
                if x is not ZERO and x:  # most zeros are the shared ZERO
                    cols[c][r] = x
        return cols

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
                              [[c * x if x else x for x in row] for row in self.entries])

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


def _echelon(rows: Iterable[Sequence], ncols: int) -> list:
    """The one elimination routine: the reduced row echelon form of `rows`
    as a list of (pivot column, row) in pivot order, each row a sparse
    {column: value} dict with value 1 at its pivot.

    Rows are taken one at a time.  A new row is reduced against the pivot
    rows found so far, reading only its nonzeros; if something is left, it
    is normalised at its first nonzero and that column is cleared from the
    earlier pivot rows.  The RREF depends only on the row space, so the
    order of the rows cannot change the result."""
    echelon = {}  # pivot column -> fully reduced row
    for vec in rows:
        if len(vec) != ncols:
            raise DimensionMismatch(f"row of length {len(vec)}, expected {ncols}")
        row = {j: _frac(x) for j, x in enumerate(vec) if x}
        for p in [j for j in row if j in echelon]:
            _axpy(row, -row[p], echelon[p])
        if not row:
            continue
        p = min(row)
        piv = row[p]
        if piv != 1:
            row = {j: x / piv for j, x in row.items()}
        for er in echelon.values():
            f = er.get(p)
            if f:
                _axpy(er, -f, row)
        echelon[p] = row
    return sorted(echelon.items())


def _axpy(y: dict, c: Fraction, x: dict) -> None:
    """y += c * x on sparse rows, dropping the entries that cancel."""
    for j, v in x.items():
        w = y.get(j, ZERO) + c * v
        if w:
            y[j] = w
        else:
            del y[j]


def _dense(row: dict, ncols: int) -> tuple:
    out = [ZERO] * ncols
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def rref(m: RationalMatrix):
    """(rref matrix, pivot columns) of m."""
    red = _echelon(m.entries, m.cols)
    rows = [_dense(row, m.cols) for _, row in red]
    rows += [(ZERO,) * m.cols] * (m.rows - len(rows))
    return RationalMatrix(m.rows, m.cols, rows), [p for p, _ in red]


def _kernel(red: list, ncols: int) -> list:
    """Per free column f, the kernel vector read off the reduced rows as
    (column, value) pairs in column order: -row[f] at each pivot row that
    holds f (pivots lie left of f), then 1 at f."""
    pivots = {p for p, _ in red}
    return [tuple((p, -row[f]) for p, row in red if f in row) + ((f, ONE),)
            for f in range(ncols) if f not in pivots]


def sparse_kernel(m: RationalMatrix) -> list:
    """The kernel basis of rank_kernel_image as (column, value) pairs."""
    return _kernel(_echelon(m.entries, m.cols), m.cols)


def rank_kernel_image(m: RationalMatrix):
    """Rank, kernel and column-space image of m, all exact.

    Kernel basis comes from the free columns of the reduced echelon form (one
    vector per free column, deterministic); image basis is the original pivot
    columns, so rank + dim kernel = cols and dim image = rank.
    """
    red = _echelon(m.entries, m.cols)
    pivots = [p for p, _ in red]
    kernel_basis = tuple(_dense(dict(v), m.cols) for v in _kernel(red, m.cols))
    image_basis = [m.column(p) for p in pivots]
    return (len(pivots),
            SubspacePresentation(m.cols, kernel_basis),
            SubspacePresentation(m.rows, tuple(image_basis)))


def rank_of(m: RationalMatrix) -> int:
    return len(_echelon(m.entries, m.cols))


def solve(m: RationalMatrix, b: Sequence) -> Optional[tuple]:
    """One exact solution of m x = b, or None when b is outside the column
    span.  Free variables are set to zero, so the answer is deterministic."""
    x = solve_matrix(m, RationalMatrix.from_columns([b], nrows=m.rows))
    return None if x is None else x.column(0)


def solve_matrix(m: RationalMatrix, rhs: RationalMatrix) -> Optional[RationalMatrix]:
    """One exact solution X of m X = rhs, or None if any column of rhs is
    outside the column span of m.  One elimination of [m | rhs]: the system
    is inconsistent exactly when a pivot lands in the rhs columns, and
    otherwise X[p] is the rhs part of pivot row p (free variables zero)."""
    if rhs.rows != m.rows:
        raise DimensionMismatch("right-hand side has wrong length")
    n = m.cols
    red = _echelon([r + s for r, s in zip(m.entries, rhs.entries)], n + rhs.cols)
    if red and red[-1][0] >= n:
        return None
    x = [[ZERO] * rhs.cols for _ in range(n)]
    for p, row in red:
        for j, v in row.items():
            if j >= n:
                x[p][j - n] = v
    return RationalMatrix(n, rhs.cols, x)


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
        _, ker, _ = rank_kernel_image(RationalMatrix.from_rows(sub.basis))
        proj = RationalMatrix(ker.dim, ambient_dim, ker.basis)
    else:
        proj = RationalMatrix.identity(ambient_dim)
    q = proj.rows
    section = solve_matrix(proj, RationalMatrix.identity(q))
    if section is None:  # cannot happen: proj has full row rank
        raise DimensionMismatch("quotient projection lost rank")
    return proj, section


def echelon_basis(vectors: Iterable[Sequence], ambient_dim: int) -> list:
    """The nonzero rows of the reduced row echelon form of the vectors, one
    per pivot in pivot order: a basis of their span."""
    return [_dense(row, ambient_dim) for _, row in _echelon(vectors, ambient_dim)]


def span_dim(vectors: Iterable[Sequence], ambient_dim: int) -> int:
    """Dimension of the span."""
    return len(_echelon(vectors, ambient_dim))
