"""Degree-zero Hochschild homology and Hochschild classes.

HH_0 of an ordinary algebra is the commutator quotient A/[A,A]; the
Hochschild class of a closed degree-0 endomorphism f of a perfect module is
the generalized supertrace

    hh(M, f) = [ sum_i (-1)^{s_i} f[i][i] ]  in  A/[A,A],

read off f alone: `PerfectModule.endomorphism` admits f as a map of the
summand cut out by the idempotent e (degree 0, entry degrees, e f e = f),
and `hh_class` adds only closedness.  The dual description via Hom over
A^e out of the inverse dualizing module is computed independently and
compared by dimensions; the class itself is compared too, as
eps . (f (x) 1) . eta read in HH_0 (`duality.EvaluationData.composite_class`).

An HH_0 space presents the quotient, and a class projects its
representative, on first read: the pairings and the trace formula read
most classes only through their representatives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

from .algebras import AlgebraElement, DgAlgebra
from . import duality
from .complexes import GradedSpace
from .errors import AlgebraMismatch, NotClosed, NotDegreeZeroConcentrated
from .linalg import (ONE, ZERO, SubspacePresentation, _canon, echelon_basis,
                     quotient_presentation)
from .modules import HomOverAlgebra, ModuleMap, PerfectModule


class HH0Space:
    """A/[A,A] with a chosen projection and coset representatives, presented
    on the first read of `projection`, `section`, `dim` or `commutator_dim`:
    a class read only through its representative never pays for it."""

    def __init__(self, algebra: DgAlgebra):
        if not algebra.is_degree_zero():
            raise NotDegreeZeroConcentrated("HH_0 computed for degree-0 algebras")
        self.algebra = algebra
        self._basis_classes: Optional[Tuple["HochschildClass", ...]] = None

    @cached_property
    def _presentation(self):
        """(dim [A,A], projection, section), built once."""
        n = self.algebra.dim
        rows = self.algebra.rows
        commutators = []
        # [e_j, e_i] = -[e_i, e_j] and [e_i, e_i] = 0 add nothing to the span
        for i in range(n):
            for j in range(i + 1, n):
                vec = [0] * n
                for k, c in rows[i].get(j, ()):
                    vec[k] += c
                for k, c in rows[j].get(i, ()):
                    vec[k] -= c
                if any(vec):
                    commutators.append(tuple(vec))
        basis = echelon_basis(commutators, n)
        return (len(basis),) + quotient_presentation(
            n, SubspacePresentation(n, tuple(basis)))

    @property
    def commutator_dim(self) -> int:
        return self._presentation[0]

    @property
    def projection(self):
        return self._presentation[1]

    @property
    def section(self):
        return self._presentation[2]

    @property
    def dim(self) -> int:
        return self.projection.rows

    def project(self, elem: AlgebraElement) -> Tuple[Fraction, ...]:
        return self.projection.apply([_canon(c) for c in elem.coords])

    def representative(self, coords) -> AlgebraElement:
        return self.algebra.element(self.section.apply(tuple(coords)))

    def class_of(self, elem: AlgebraElement) -> "HochschildClass":
        if not elem.algebra.same_structure(self.algebra):
            raise AlgebraMismatch("element lives over another algebra than HH_0")
        if elem.algebra is not self.algebra:  # equal structure: move it over
            elem = AlgebraElement(self.algebra, elem.coords)
        return HochschildClass(self, elem)

    def basis_classes(self) -> Tuple["HochschildClass", ...]:
        """Classes of the chosen coset representatives, built once."""
        if self._basis_classes is None:
            self._basis_classes = tuple(HochschildClass(self, self.representative(
                ONE if r == t else ZERO for r in range(self.dim))) for t in range(self.dim))
        return self._basis_classes


class HochschildClass:
    """Element of HH_0(A): a chosen representative and its coordinates,
    projected on first read."""

    def __init__(self, space: HH0Space, representative: AlgebraElement):
        self.space = space
        self.representative = representative

    @cached_property
    def coords(self) -> Tuple[Fraction, ...]:
        return self.space.project(self.representative)

    @property
    def algebra(self) -> DgAlgebra:
        return self.space.algebra

    def __add__(self, other: "HochschildClass") -> "HochschildClass":
        if not other.algebra.same_structure(self.algebra):
            raise AlgebraMismatch("classes over different algebras")
        return HochschildClass(self.space, self.representative + other.representative)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "HochschildClass":
        return HochschildClass(self.space, self.representative.scale(c))

    def __eq__(self, other):
        return (isinstance(other, HochschildClass)
                and self.space.algebra.same_structure(other.space.algebra)
                and self.coords == other.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"HochschildClass({self.coords})"


def hh0_space(a: DgAlgebra) -> HH0Space:
    """A/[A,A], memoised on the algebra."""
    if a._hh0 is None:
        a._hh0 = HH0Space(a)
    return a._hh0


def diagonal(f: ModuleMap) -> list:
    """Per generator i, the nonzero coordinates of the entry f[i][i]."""
    return [next((vec for j, vec in col if j == i), ())
            for i, col in enumerate(f.columns)]


def generalized_supertrace(m: PerfectModule, f: ModuleMap) -> AlgebraElement:
    """X_{M,f} = sum_i (-1)^{s_i} f[i][i] in A (no projection): the one
    module-level supertrace and `hh_class`'s representative; the kernel
    transfer reads the same `diagonal` term by term.  It is all the trace
    formula's left side reads of (M, f): on the keys (i, u = e_b g_k) of
    N (x)_A M, hh_k(N (x)_A M, g (x) f) = sum (-1)^{|b| - s_k - s_i}
    [u] (g(u) . f[i][i]), linear in f[i][i], so M sums out to
    `pairing.rr_left_side(n, g, X)`."""
    total = [0] * m.algebra.dim
    for s, vec in zip(m.shifts, diagonal(f)):
        for t, c in vec:
            total[t] += -c if s % 2 else c
    return m.algebra.element(total)


def hh_class(m: PerfectModule, f: ModuleMap,
             space: Optional[HH0Space] = None) -> HochschildClass:
    """Hochschild class of a closed endomorphism f of the summand, which
    `m.endomorphism` admits (degree 0, entry degrees, e f e = f).  A draw
    of m's sampler (`f.drawn_from is m`) is closed by construction, so
    only other maps are checked for closedness."""
    if not m.algebra.is_degree_zero():
        raise NotDegreeZeroConcentrated("Hochschild classes need a degree-0 algebra")
    m.endomorphism(f)
    if f.drawn_from is not m and not f.is_closed():
        raise NotClosed("Hochschild class of a closed map only")
    return (hh0_space(m.algebra) if space is None else space).class_of(
        generalized_supertrace(m, f))


def euler_class(m: PerfectModule, space: Optional[HH0Space] = None) -> HochschildClass:
    """hh of the identity; the idempotent is the chain representative of the
    identity on a homotopy summand."""
    return hh_class(m, m.identity_map(), space)


def hh_via_dualizing(a: DgAlgebra, resolution) -> GradedSpace:
    """Cohomology dims of Hom_{A^e}(omega^{-1}, A); degree 0 must equal
    dim HH_0 and the whole table is the Hochschild homology of A
    (HH_n in cohomological degree -n)."""
    if not a.same_structure(resolution.algebra):
        raise AlgebraMismatch("resolution of another algebra")
    omega_inv = duality.omega_inverse(resolution)
    return HomOverAlgebra(omega_inv.module, duality.diagonal_explicit(a),
                          omega_inv.idempotent).cohomology_dims()
