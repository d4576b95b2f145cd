"""Finite-dimensional dg algebras given by validated structure constants.

An algebra is a flat basis with degrees, a sparse multiplication table
c[i][j] = list of (k, coefficient), a unit vector and a sparse differential.
Validation is exhaustive over basis tuples: associativity on all triples,
two-sided unit, degree additivity, the Leibniz rule d(ab) = d(a)b +
(-1)^{|a|} a d(b) and d^2 = 0.

The opposite algebra multiplies by a .op b = (-1)^{|a||b|} b a; tensor
algebras multiply with the Koszul sign (a (x) b)(a' (x) b') =
(-1)^{|b||a'|} aa' (x) bb'.

Structure constants, units and differentials are stored scalars in the
`linalg` sense: an `int` when integral, otherwise a `Fraction`.
`AlgebraElement.coords` are always `Fraction`s.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import (Complex, GradedSpace, cohomology_dims, keyed_blocks,
                        positions)
from .errors import (AlgebraMismatch, AssociativityViolation, DegreeViolation,
                     DimensionMismatch, DifferentialSquareViolation,
                     LeibnizViolation, UnitViolation)
from .linalg import ONE, ZERO, _canon

Coords = Tuple[Fraction, ...]
SparseVec = Tuple[Tuple[int, Fraction], ...]


def sparse(coords: Sequence[Fraction]) -> SparseVec:
    """The nonzero coordinates of a dense vector, as (index, stored value)
    pairs."""
    return tuple((i, _canon(c)) for i, c in enumerate(coords) if c)


def _merged(vec) -> SparseVec:
    """Sum repeated indices, drop zero sums, sort by index."""
    acc: Dict[int, Fraction] = {}
    for i, c in vec:
        acc[i] = acc.get(i, 0) + _canon(c)
    return tuple(sorted((i, _canon(c)) for i, c in acc.items() if c))


class DgAlgebra:
    """Immutable dg algebra on an ordered basis.

    `mult[(i, j)]` lists the nonzero coordinates of e_i * e_j in index
    order (repeated indices of the input are summed); pairs with zero
    product are absent.  `mult` is the basis-product kernel: every loop over
    basis products reads it through `rows`, the same table indexed by left
    factor; the dense reference `multiply` reads `mult` itself.
    `diff[i]` lists the coordinates of d(e_i), normalised the same way.
    Every coefficient of `mult`, `diff` and `unit` is a stored scalar (an
    int when integral, else a Fraction), so products of integers stay
    integers; the readers (`AlgebraElement.coords`) give Fractions.  Tables
    derived from `mult` are memoised on the instance on first use, never in
    the constructor: `rows` (a `cached_property`), the trace table
    (`pairing._pair_trace_table`), HH_0 (`hochschild.hh0_space`), the table
    of A^* as a left module over the opposite algebra
    (`duality._dual_table`), the opposite algebra (`opposite`), the tensor
    products with this algebra as first factor (`tensor_algebras`) and the
    projective summands A.e[s] (`modules.projective_module`).

    The public constructor normalises what it is given (`_merged` sums
    repeated indices, drops zeros, sorts and stores each coefficient in
    stored form) and checks that products and the differential are
    degree-additive.  `built` is the one trusted path, for `opposite` and
    `_tensor`: their tables are already sorted, zero-free and in stored
    form, with a canonical unit, so it takes them as they are.
    """

    def __init__(self, labels: Sequence[str], degrees: Sequence[int],
                 mult: Dict[Tuple[int, int], SparseVec], unit: Sequence[Fraction],
                 diff: Optional[Dict[int, SparseVec]] = None):
        n = len(labels)
        if len(degrees) != n or len(unit) != n:
            raise DimensionMismatch("basis data lengths disagree")
        self._init(tuple(labels), tuple(int(d) for d in degrees),
                   {k: vec for k, v in mult.items() if (vec := _merged(v))},
                   tuple(_canon(c) for c in unit),
                   {i: vec for i, v in (diff or {}).items() if (vec := _merged(v))})
        self._check_degrees()

    @classmethod
    def built(cls, labels: Tuple[str, ...], degrees: Tuple[int, ...],
              mult: Dict[Tuple[int, int], SparseVec], unit: Tuple,
              diff: Dict[int, SparseVec]) -> "DgAlgebra":
        """The output of a builder whose tables are normalised by
        construction: nothing is merged, sorted or checked."""
        a = cls.__new__(cls)
        a._init(labels, degrees, mult, unit, diff)
        return a

    def _init(self, labels, degrees, mult, unit, diff):
        self.labels = labels
        self.degrees = degrees
        self.mult = mult
        self.unit = unit
        self.diff = diff
        self._trace_table = None
        self._hh0 = None
        self._dual_table = None
        self._opposite = None
        self._products = None
        self._projectives: Dict[Tuple, object] = {}

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def rows(self) -> List[Dict[int, SparseVec]]:
        """rows[i] = {j: mult[(i, j)]}, the products with left factor e_i:
        the layout every basis-product loop reads, so a lookup is one
        list index and one int-keyed dict probe."""
        rows: List[Dict[int, SparseVec]] = [{} for _ in range(self.dim)]
        for (i, j), vec in self.mult.items():
            rows[i][j] = vec
        return rows

    def _check_degrees(self):
        for (i, j), vec in self.mult.items():
            d = self.degrees[i] + self.degrees[j]
            for k, _ in vec:
                if self.degrees[k] != d:
                    raise DegreeViolation(
                        f"product {self.labels[i]}*{self.labels[j]} not degree-additive")
        for i, vec in self.diff.items():
            for j, _ in vec:
                if self.degrees[j] != self.degrees[i] + 1:
                    raise DegreeViolation(f"d({self.labels[i]}) has wrong degree")

    # -- elements ---------------------------------------------------------

    def element(self, coords: Sequence[Fraction]) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def basis_element(self, i: int) -> "AlgebraElement":
        coords = [ZERO] * self.dim
        coords[i] = ONE
        return AlgebraElement(self, tuple(coords))

    def by_label(self, label: str) -> "AlgebraElement":
        return self.basis_element(self.labels.index(label))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, (ZERO,) * self.dim)

    def multiply(self, a: Coords, b: Coords) -> Coords:
        """Dense product scan over `mult`; independent of `rows` and
        add_product, so tests and oracles use it as the reference."""
        out = [ZERO] * self.dim
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        vec = self.mult.get((i, j))
                        if vec:
                            cab = ca * cb
                            for k, c in vec:
                                out[k] += cab * c
        return tuple(out)

    def add_product(self, out: List[Fraction], u: SparseVec, v: SparseVec) -> None:
        """out += u * v for sparse coordinate vectors u and v: the one
        product kernel, read from `rows`."""
        rows = self.rows
        for i, cu in u:
            row = rows[i]
            for j, cv in v:
                vec = row.get(j)
                if vec:
                    cuv = cu * cv
                    for k, c in vec:
                        out[k] += cuv * c

    def differential(self, a: Coords) -> Coords:
        out = [ZERO] * self.dim
        for i, ca in enumerate(a):
            if ca:
                for j, c in self.diff.get(i, ()):
                    out[j] += ca * c
        return tuple(out)

    # -- structure --------------------------------------------------------

    def is_degree_zero(self) -> bool:
        """True when concentrated in degree 0 (then d = 0 automatically)."""
        return all(d == 0 for d in self.degrees)

    def carrier(self) -> Complex:
        """Underlying complex; basis per degree in flat-index order."""
        by_degree: Dict[int, List[int]] = {}
        for i, d in enumerate(self.degrees):
            by_degree.setdefault(d, []).append(i)
        space = GradedSpace({d: len(ix) for d, ix in by_degree.items()})
        return Complex(space, keyed_blocks(by_degree, by_degree, positions(by_degree),
                                           1, lambda i: self.diff.get(i, ())))

    def cohomology_dims(self) -> GradedSpace:
        return cohomology_dims(self.carrier())

    def validate(self) -> "DgAlgebra":
        """Exhaustive invariant check over basis tuples through `add_product`
        and `rows`: the two-sided unit on each e_i, associativity on each
        (i, j, k), the Leibniz rule on each (i, j), then d^2 = 0; raises on
        the first offending tuple in that order.  A triple where both
        products are zero by the table's support is not formed."""
        n = self.dim
        rows, diff = self.rows, self.diff
        unit = sparse(self.unit)
        for i in range(n):
            e = ((i, 1),)
            for side, u, v in (("left", unit, e), ("right", e, unit)):
                out = [0] * n
                self.add_product(out, u, v)
                if sparse(out) != e:
                    raise UnitViolation(i, side)
        for i in range(n):
            for j in range(n):
                pij, row_j = rows[i].get(j, ()), rows[j]
                # (e_i e_j) e_k and e_i (e_j e_k) vanish off these k
                for k in sorted({k for m, _ in pij for k in rows[m]} | set(row_j)):
                    left, right = [0] * n, [0] * n
                    self.add_product(left, pij, ((k, 1),))
                    self.add_product(right, ((i, 1),), row_j.get(k, ()))
                    if left != right:
                        raise AssociativityViolation(i, j, k)
        if not diff:
            return self  # d = 0: Leibniz and d^2 = 0 hold

        def d(vec: SparseVec) -> List:
            out = [0] * n
            for m, c in vec:
                for l, cl in diff.get(m, ()):
                    out[l] += c * cl
            return out
        for i in range(n):
            sign = -1 if self.degrees[i] % 2 else 1
            for j in range(n):
                expected = [0] * n
                self.add_product(expected, diff.get(i, ()), ((j, 1),))
                self.add_product(expected, ((i, sign),), diff.get(j, ()))
                if d(rows[i].get(j, ())) != expected:
                    raise LeibnizViolation(i, j)
        for i in range(n):
            if any(d(sparse(d(((i, 1),))))):
                raise DifferentialSquareViolation(f"on {self.labels[i]}")
        return self

    # -- comparisons ------------------------------------------------------

    def same_structure(self, other: "DgAlgebra") -> bool:
        """Structural equality ignoring labels."""
        return other is self or (self.degrees == other.degrees
                and self.unit == other.unit
                and self.mult == other.mult
                and self.diff == other.diff)

    def __eq__(self, other):
        return isinstance(other, DgAlgebra) and self.same_structure(other)

    __hash__ = object.__hash__  # hashable by identity; __eq__ compares structure

    def __repr__(self):
        return f"DgAlgebra(dim={self.dim})"


class AlgebraElement:
    """Element of a DgAlgebra as a coordinate vector over the basis, of
    Fractions whatever the input.

    The constructor checks the length and converts every coordinate that
    is not a Fraction.  The linear arithmetic (`scale`, `+`, `-`; unary `-`
    is `scale(-1)`) touches nonzero coordinates only: a zero coordinate is
    passed through with no Fraction operation."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: DgAlgebra, coords: Coords):
        if len(coords) != algebra.dim:
            raise DimensionMismatch("coordinate vector of wrong length")
        self.algebra = algebra
        self.coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)

    def _same_algebra(self, other: "AlgebraElement") -> None:
        if not other.algebra.same_structure(self.algebra):
            raise AlgebraMismatch("elements of different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return AlgebraElement(self.algebra, tuple(
            (a + b if a else b) if b else a for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return AlgebraElement(self.algebra, tuple(
            (a - b if a else -b) if b else a for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        if type(c) is not Fraction:
            c = Fraction(c)
        return AlgebraElement(self.algebra, tuple(c * x if x else x for x in self.coords))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_algebra(other)
        return AlgebraElement(self.algebra,
                              self.algebra.multiply(self.coords, other.coords))

    def d(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.differential(self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def degree(self) -> Optional[int]:
        """Degree when homogeneous, None for 0 or mixed."""
        degs = {self.algebra.degrees[i] for i, c in enumerate(self.coords) if c}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.coords == other.coords
                and self.algebra.same_structure(other.algebra))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c:
                terms.append(f"{c}*{self.algebra.labels[i]}" if c != 1
                             else self.algebra.labels[i])
        return " + ".join(terms) if terms else "0"


def validate_algebra(labels, degrees, mult, unit, diff=None) -> DgAlgebra:
    """Build and exhaustively validate an algebra from raw data."""
    return DgAlgebra(labels, degrees, mult, unit, diff).validate()


def opposite(a: DgAlgebra) -> DgAlgebra:
    """Same carrier, multiplication x .op y = (-1)^{|x||y|} y x; memoised
    on the algebra, and an involution on instances: opposite(opposite(a))
    is a."""
    if a._opposite is None:
        mult: Dict[Tuple[int, int], SparseVec] = {}
        for (i, j), vec in a.mult.items():
            sgn = -1 if (a.degrees[i] * a.degrees[j]) % 2 else 1
            mult[(j, i)] = tuple((k, sgn * c) for k, c in vec)
        a._opposite = DgAlgebra.built(a.labels, a.degrees, mult, a.unit, dict(a.diff))
        a._opposite._opposite = a
    return a._opposite


def tensor_algebras(a: DgAlgebra, b: DgAlgebra) -> DgAlgebra:
    """a (x) b with basis (i, j) at flat index i*dim(b)+j and Koszul sign
    (x (x) y)(x' (x) y') = (-1)^{|y||x'|} xx' (x) yy'.

    Memoised on a, weakly keyed by b: one instance per live pair of
    factors, which lives while both factors do."""
    if a._products is None:
        a._products = weakref.WeakKeyDictionary()
    ab = a._products.get(b)
    if ab is None:
        ab = a._products[b] = _tensor(a, b)
    return ab


def _is_ground_field(a: DgAlgebra) -> bool:
    """a is k: one basis element 1 of degree 0, 1 * 1 = 1 and d = 0."""
    return (a.mult == {(0, 0): ((0, 1),)} and a.degrees == (0,)
            and a.unit == (1,) and not a.diff)


def _tensor(a: DgAlgebra, b: DgAlgebra) -> DgAlgebra:
    """The tables of a (x) b in normal form by construction: a product's
    flat indices k*dim(b)+l come in index order, a product of nonzero
    rationals is nonzero, and the two parts of each differential are
    sorted together.  A ground-field factor k only relabels the other one:
    flat index i*1 + 0 = 0*n + i = i, every sign +1, so its tables are
    taken as they are."""
    nb = b.dim
    labels = tuple(f"{la}(x){lb}" for la in a.labels for lb in b.labels)
    for x, g in ((a, b), (b, a)):
        if _is_ground_field(g):
            return DgAlgebra.built(labels, x.degrees, x.mult, x.unit, x.diff)
    degrees = tuple(da + db for da in a.degrees for db in b.degrees)
    mult: Dict[Tuple[int, int], SparseVec] = {}
    for (i, ip), veca in a.mult.items():
        for (j, jp), vecb in b.mult.items():
            sgn = -1 if (b.degrees[j] * a.degrees[ip]) % 2 else 1
            mult[(i * nb + j, ip * nb + jp)] = tuple(
                (k * nb + l, _canon(sgn * ca * cb)) for k, ca in veca for l, cb in vecb)
    unit = tuple(map(_canon, pure_tensor(a.unit, b.unit)))
    diff: Dict[int, SparseVec] = {}
    for i in range(a.dim):
        for j in range(nb):
            entries = [(k * nb + j, c) for k, c in a.diff.get(i, ())]
            sgn = -1 if a.degrees[i] % 2 else 1
            entries += [(i * nb + l, sgn * c) for l, c in b.diff.get(j, ())]
            if entries:
                diff[i * nb + j] = tuple(sorted(entries))
    return DgAlgebra.built(labels, degrees, mult, unit, diff)


def pure_tensor(x: Sequence[Fraction], y: Sequence[Fraction]) -> Coords:
    """The coordinates of x (x) y in tensor_algebras(a, b), x and y given
    by their coordinates over a and b: x_i y_j at flat index i*dim(b)+j."""
    nb = len(y)
    ys = sparse(y)
    out = [ZERO] * (len(x) * nb)
    for i, cx in enumerate(x):
        if cx:
            for j, cy in ys:
                out[i * nb + j] = cx * cy
    return tuple(out)


class AlgebraIso:
    """Isomorphism of algebras sending basis element i of the source to
    scalar[i] times basis element perm[i] of the target.

    Covers every identification this package needs (swaps of tensor factors,
    (R (x) S)^op = R^op (x) S^op, unit absorption), all of which permute the
    basis up to sign in degree 0.
    """

    def __init__(self, source: DgAlgebra, target: DgAlgebra,
                 perm: Sequence[int], scalars: Optional[Sequence[Fraction]] = None):
        if len(perm) != source.dim or source.dim != target.dim:
            raise DimensionMismatch("iso needs equal dimensions")
        if sorted(perm) != list(range(source.dim)):
            raise DimensionMismatch("perm is not a permutation")
        self.source = source
        self.target = target
        self.perm = tuple(perm)
        self.scalars = tuple(map(_canon, scalars)) if scalars else (1,) * source.dim

    def apply(self, coords: Coords) -> Coords:
        out = [ZERO] * len(coords)
        for i, c in enumerate(coords):
            if c:
                out[self.perm[i]] += c * self.scalars[i]
        return tuple(out)

    def inverse(self) -> "AlgebraIso":
        inv_perm = [0] * len(self.perm)
        inv_scal = [ONE] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
            inv_scal[p] = ONE / self.scalars[i]
        return AlgebraIso(self.target, self.source, inv_perm, inv_scal)

    def check(self) -> "AlgebraIso":
        """Verify multiplicativity, unit and differential on all pairs."""
        n = self.source.dim
        if self.apply(self.source.unit) != self.target.unit:
            raise UnitViolation(-1, "iso")
        for i in range(n):
            ei = tuple(ONE if k == i else ZERO for k in range(n))
            fi = self.apply(ei)
            if self.apply(self.source.differential(ei)) != self.target.differential(fi):
                raise DifferentialSquareViolation("iso does not commute with d")
            for j in range(n):
                ej = tuple(ONE if k == j else ZERO for k in range(n))
                lhs = self.apply(self.source.multiply(ei, ej))
                rhs = self.target.multiply(fi, self.apply(ej))
                if lhs != rhs:
                    raise AssociativityViolation(i, j, -1)
        return self


def swap_iso(a: DgAlgebra, b: DgAlgebra, ba: DgAlgebra) -> AlgebraIso:
    """a (x) b -> b (x) a, x (x) y -> (-1)^{|x||y|} y (x) x: the one swap of
    tensor factors, onto ba, an algebra on the basis of b (x) a."""
    nb, na = b.dim, a.dim
    perm = [0] * (na * nb)
    scal = [1] * (na * nb)
    for i in range(na):
        for j in range(nb):
            perm[i * nb + j] = j * na + i
            if (a.degrees[i] * b.degrees[j]) % 2:
                scal[i * nb + j] = -1
    return AlgebraIso(tensor_algebras(a, b), ba, perm, scal)


def env_op_iso(a: DgAlgebra) -> AlgebraIso:
    """A^e -> (A^e)^op, x (x) y -> y (x) x: the factor swap of A (x) A^op.

    Both sides share the same underlying basis; the swap is multiplicative
    because (x (x) y)(x' (x) y') in A^e flips to x'x (x) yy' under .op.
    Degree-0 algebras only (there every scalar of the swap is +1).
    """
    aop = opposite(a)
    return swap_iso(a, aop, opposite(tensor_algebras(a, aop)))
