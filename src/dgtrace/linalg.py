"""Exact linear algebra over arbitrary-precision rationals.

Everything downstream (cohomology, quotients, trace pairings) reduces to
ranks, kernels, images and solves over Q.  A matrix is stored as sparse
rows, and one routine does all the row reduction on them as they are
stored: it takes the rows one at a time, reduces each against the pivot
rows found so far on its nonzeros only, and keeps the result in reduced row
echelon form.  That form depends only on the row space, so every basis this
module produces is deterministic and reproducible byte for byte.

Scalars have one stored form: an `int` when integral and a `Fraction` with
denominator > 1 otherwise (`_canon`), so integer arithmetic takes Python's
fast path by itself.  Every public reader (`entries`, `column`, `columns`,
`apply`, `trace` and the bases built from them) gives `Fraction`s, and
every true division divides a `Fraction`.  No floating point anywhere.

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


def _canon(x):
    """The stored form of a rational: an int when integral, else a
    Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class RationalMatrix:
    """Matrix of rationals stored as sparse rows: `_rows[i]` holds the
    nonzero entries of row i as {column: value}, and no zero is ever
    stored, so equal matrices have equal rows however they were built.
    Immutable by convention: no method mutates `self` or a stored row.
    The constructor takes a dense grid and `from_sparse_columns` the
    builders' columns; `entries` is a dense view for tests and printing."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        if len(entries) != rows:
            raise DimensionMismatch(f"expected {rows}x{cols} entries")
        self.rows, self.cols = rows, cols
        self._rows = tuple(_sparse(r, cols) for r in entries)

    @classmethod
    def _of(cls, rows: int, cols: int, sparse_rows: Sequence[dict]) -> "RationalMatrix":
        """The matrix with these rows, {column: nonzero stored scalar} dicts
        that it takes over."""
        m = object.__new__(cls)
        m.rows, m.cols, m._rows = rows, cols, tuple(sparse_rows)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def from_sparse_columns(cls, nrows: int,
                            columns: Sequence[Mapping[int, Fraction]]) -> "RationalMatrix":
        """The nrows x len(columns) matrix whose column c holds columns[c],
        a {row: value} map of rationals (zeros dropped): the one constructor
        of the builders, which never see the layout."""
        rows = [{} for _ in range(nrows)]
        for c, col in enumerate(columns):
            for r, x in col.items():
                if x:
                    rows[r][c] = _canon(x)
        return cls._of(nrows, len(columns), rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "RationalMatrix":
        if nrows is None:
            if not cols:
                raise DimensionMismatch("from_columns with no columns needs nrows")
            nrows = len(cols[0])
        return cls.from_sparse_columns(nrows, [_sparse(c, nrows) for c in cols])

    @property
    def entries(self) -> tuple:
        """The dense grid, built on each use."""
        return tuple(_dense(row, self.cols) for row in self._rows)

    def column(self, j: int) -> tuple:
        return tuple(Fraction(row[j]) if j in row else ZERO for row in self._rows)

    def columns(self) -> list:
        return [_dense(col, self.rows) for col in self.sparse_columns()]

    def sparse_columns(self) -> list:
        """Per column, its nonzero entries as {row: value}, rows ascending:
        the one reader of the builders, the inverse of
        `from_sparse_columns`; the values are in stored form."""
        cols = [{} for _ in range(self.cols)]
        for r, row in enumerate(self._rows):
            for c, x in row.items():
                cols[c][r] = x
        return cols

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._of(self.cols, self.rows, self.sparse_columns())

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self._rows)))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        out = [dict(row) for row in self._rows]
        for row, rb in zip(out, other._rows):
            _axpy(row, 1, rb)
        return RationalMatrix._of(self.rows, self.cols, out)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        c = _canon(c)
        if not c:
            return RationalMatrix.zeros(self.rows, self.cols)
        return RationalMatrix._of(self.rows, self.cols, [
            {j: _canon(c * x) for j, x in row.items()} for row in self._rows])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        orows = other._rows
        out = []
        for srow in self._rows:
            row = {}
            for k, a in srow.items():
                _axpy(row, a, orows[k])
            out.append(row)
        return RationalMatrix._of(self.rows, other.cols, out)

    def apply(self, vec: Sequence[Fraction]) -> tuple:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(Fraction(sum(x * vec[j] for j, x in row.items() if vec[j]))
                     for row in self._rows)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return Fraction(sum(row.get(i, 0) for i, row in enumerate(self._rows)))

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


def _echelon(rows: Iterable[dict]) -> list:
    """The one elimination routine: the reduced row echelon form of `rows`
    as a list of (pivot column, row) in pivot order, each row a sparse
    {column: value} dict with value 1 at its pivot.

    Rows are sparse {column: nonzero stored scalar} dicts, taken one at a time
    and consumed.  A new row is reduced against the pivot rows found so
    far, reading only its nonzeros; if something is left, it is normalised
    at its first nonzero and that column is cleared from the earlier pivot
    rows.  The RREF depends only on the row space, so neither the order of
    the rows nor the order of a row's keys can change the result."""
    echelon = {}  # pivot column -> fully reduced row
    for row in rows:
        for p in [j for j in row if j in echelon]:
            _axpy(row, -row[p], echelon[p])
        if not row:
            continue
        p = min(row)
        piv = row[p]
        if piv != 1:
            row = {j: _canon(Fraction(x, piv)) for j, x in row.items()}
        for er in echelon.values():
            f = er.get(p)
            if f:
                _axpy(er, -f, row)
        echelon[p] = row
    return sorted(echelon.items())


def _axpy(y: dict, c, x: dict) -> None:
    """y += c * x on sparse rows, dropping the entries that cancel."""
    for j, v in x.items():
        w = y.get(j, 0) + c * v
        if w:
            y[j] = _canon(w)
        else:
            del y[j]


def _sparse(vec: Sequence, n: int) -> dict:
    """The nonzeros of a dense caller vector of length n, in stored form."""
    if len(vec) != n:
        raise DimensionMismatch(f"vector of length {len(vec)}, expected {n}")
    return {j: _canon(x) for j, x in enumerate(vec) if x}


def _dense(row: Mapping, n: int) -> tuple:
    """The dense reader view of a stored row: Fractions throughout."""
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = Fraction(x)
    return tuple(out)


def rref(m: RationalMatrix):
    """(rref matrix, pivot columns) of m."""
    red = _echelon(map(dict, m._rows))
    rows = [row for _, row in red] + [{} for _ in range(m.rows - len(red))]
    return RationalMatrix._of(m.rows, m.cols, rows), [p for p, _ in red]


def _kernel(red: list, ncols: int) -> list:
    """Per free column f, the kernel vector read off the reduced rows as
    (column, value) pairs in column order: -row[f] at each pivot row that
    holds f (pivots lie left of f), then 1 at f."""
    pivots = {p for p, _ in red}
    return [tuple((p, -row[f]) for p, row in red if f in row) + ((f, 1),)
            for f in range(ncols) if f not in pivots]


def sparse_kernel(rows: Iterable[Mapping], ncols: int) -> list:
    """The kernel basis of rank_kernel_image, as (column, value) pairs, of
    the matrix with ncols columns and these rows, each a {column: rational}
    mapping; zero values are dropped and the rest put in stored form."""
    return _kernel(_echelon({j: _canon(x) for j, x in row.items() if x}
                            for row in rows), ncols)


def rank_kernel_image(m: RationalMatrix):
    """Rank, kernel and column-space image of m, all exact.

    Kernel basis comes from the free columns of the reduced echelon form (one
    vector per free column, deterministic); image basis is the original pivot
    columns, so rank + dim kernel = cols and dim image = rank.
    """
    red = _echelon(map(dict, m._rows))
    pivots = [p for p, _ in red]
    kernel_basis = tuple(_dense(dict(v), m.cols) for v in _kernel(red, m.cols))
    image_basis = [m.column(p) for p in pivots]
    return (len(pivots),
            SubspacePresentation(m.cols, kernel_basis),
            SubspacePresentation(m.rows, tuple(image_basis)))


def rank_of(m: RationalMatrix) -> int:
    return len(_echelon(map(dict, m._rows)))


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
    red = _echelon({**r, **{n + j: x for j, x in s.items()}}
                   for r, s in zip(m._rows, rhs._rows))
    if red and red[-1][0] >= n:
        return None
    x = [{} for _ in range(n)]
    for p, row in red:
        x[p] = {j - n: v for j, v in row.items() if j >= n}
    return RationalMatrix._of(n, rhs.cols, x)


def quotient_presentation(ambient_dim: int, sub: SubspacePresentation):
    """Present Q^ambient / sub as (proj, section).

    proj has full row rank ambient_dim - dim(sub) and kills sub exactly;
    section is a right inverse, proj @ section = identity on the quotient.
    Rows of proj are the canonical kernel basis of the matrix whose rows are
    the subspace basis, so the presentation is deterministic.
    """
    if sub.ambient_dim != ambient_dim:
        raise DimensionMismatch("subspace lives in a different ambient space")
    ker = _kernel(_echelon(_sparse(v, ambient_dim) for v in sub.basis), ambient_dim)
    proj = RationalMatrix._of(len(ker), ambient_dim, map(dict, ker))
    q = proj.rows
    section = solve_matrix(proj, RationalMatrix.identity(q))
    if section is None:  # cannot happen: proj has full row rank
        raise DimensionMismatch("quotient projection lost rank")
    return proj, section


def echelon_basis(vectors: Iterable[Sequence], ambient_dim: int) -> list:
    """The nonzero rows of the reduced row echelon form of the vectors, one
    per pivot in pivot order: a basis of their span."""
    return [_dense(row, ambient_dim)
            for _, row in _echelon(_sparse(v, ambient_dim) for v in vectors)]


def span_dim(vectors: Iterable[Sequence], ambient_dim: int) -> int:
    """Dimension of the span."""
    return len(_echelon(_sparse(v, ambient_dim) for v in vectors))
