"""Trace pairings on degree-zero Hochschild classes and the main verifier.

The middle-algebra contraction of classes [u] over A (x) B^op and [v] over
B (x) C^op composes the corresponding rank-one kernels over B: the balanced
tensor (A (x) B^op) (x)_B (B (x) C^op) is free of rank dim B over A (x) C^op,
the endomorphism R_u (x) R_v transports along it, and the class of its
supertrace is the contraction.  Summed out, that is

    [u] cup_B [v] = sum  tr_B(y -> p y q) [a (x) c]

over tensor terms u = a (x) p, v = q (x) c, read off the memoised trace
table tau_B[p][q] = tr_B(y -> p y q) by one contraction, `_contract`.  Every
middle algebra, with or without arrows, goes through it.

Specializing A = C = k, B = A gives the scalar pairing
<lambda, mu> = tr(x -> b x a) with representatives b, a: `pair_scalar` is
the same contraction.  The trace-formula verifier checks it against the
supertrace of g (x) f on the balanced tensor of the modules themselves.

Kernel composition, the module side of hh(K1 (x)_B K2) = hh(K1) cup_B
hh(K2), goes through the diagonal resolution of every B (`compose_kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebras import (AlgebraElement, DgAlgebra, SparseVec, opposite,
                       pure_tensor, sparse, tensor_algebras)
from .errors import (AlgebraMismatch, NoDiagonalResolutionForB,
                     NotDegreeZeroConcentrated)
from .hochschild import (HH0Space, HochschildClass, diagonal, euler_class,
                         hh0_space, hh_class)
from .linalg import ONE, ZERO
from .modules import (ModuleMap, PerfectModule, SemiFreeModule, _neg, _offset,
                      outer_tensor_columns, outer_tensor_modules,
                      restrict_to_factor, right_multiplication_map)
from .resolutions import DiagonalResolution


# ---------------------------------------------------------------------------
# Phi: the transfer along a bimodule kernel
# ---------------------------------------------------------------------------

class KernelTransfer:
    """Transfer HH_0(B) -> HH_0(A) along a perfect A (x) B^op kernel.

    A class [x] is sent to the Hochschild class of right multiplication
    R_x by x on the kernel restricted to A, read as the supertrace of
    R_x . e, since tr(e R_x e) = tr(R_x e e) modulo commutators, with e the
    restricted idempotent (the identity when there is none).  That
    supertrace is linear in x, so it is the sum of x_t T[t], T[t] the
    supertrace of R_t . e for the basis element b_t of B^op.  `traces`
    holds T[t] for every t, read off the kernel's own diagonal without
    restricting it: each term c e_k (x) b_p of e[g][g] adds
    (-1)^{s_g} c [b_q](b_u b_p) [b_u](b_t b_q) to T[t][k] (products in
    B^op), the entry e[(g, q)][(g, u)] of the restriction to generators
    (1 (x) b_q) g times R_t[(g, u)][(g, q)].  Right multiplication by a
    degree-0 element is closed (the middle algebra carries no
    differential), so no chain checks are repeated.  A kernel over an
    algebra that is not A (x) B^op in structure raises, even when the
    dimensions fit.
    """

    def __init__(self, kernel: PerfectModule, a: DgAlgebra, b: DgAlgebra):
        if not (a.is_degree_zero() and b.is_degree_zero()
                and kernel.algebra.is_degree_zero()):
            raise NotDegreeZeroConcentrated(
                "transfer maps live over degree-0 algebras")
        self.bop = opposite(b)
        if not kernel.algebra.same_structure(tensor_algebras(a, self.bop)):
            raise AlgebraMismatch("kernel is not over A (x) B^op")
        self.a = a
        self.b = b
        self.space_a = hh0_space(a)
        rows = self.bop.rows
        nb = self.bop.dim
        # by_pair[(q, u)] lists the terms c b_u of the products b_t b_q in B^op
        by_pair: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for t, products in enumerate(rows):
            for q, vec in products.items():
                for u, c in vec:
                    by_pair.setdefault((q, u), []).append((t, c))
        table = [[0] * a.dim for _ in range(nb)]
        for s, vec in zip(kernel.shifts, diagonal(kernel.identity_map())):
            for flat, c in vec:
                k, p = divmod(flat, nb)
                if s % 2:
                    c = -c
                for u, products in enumerate(rows):
                    for q, cq in products.get(p, ()):
                        for t, ct in by_pair.get((q, u), ()):
                            table[t][k] += c * cq * ct
        self.traces: List[SparseVec] = [sparse(row) for row in table]

    def apply(self, lam: HochschildClass) -> HochschildClass:
        if not lam.algebra.same_structure(self.b):
            raise AlgebraMismatch("class does not live over the middle algebra")
        total = [0] * self.a.dim
        for t, x in sparse(lam.representative.coords):
            for k, c in self.traces[t]:
                total[k] += x * c
        return self.space_a.class_of(self.a.element(total))


# ---------------------------------------------------------------------------
# The trace-table contraction: cup and the scalar pairing
# ---------------------------------------------------------------------------

def _pair_trace_table(b: DgAlgebra) -> list:
    """tau[q][r] = tr_B(y -> e_q y e_r) = sum_w [e_w](e_q e_w e_r), memoised
    on the algebra.  Each structure constant e_q e_w = sum_k c_k e_k adds
    c_k [e_w](e_k e_r) to tau[q][r], read from the row of e_k."""
    if b._trace_table is None:
        n = b.dim
        rows = b.rows
        table = [[0] * n for _ in range(n)]
        for q, products in enumerate(rows):
            tau_q = table[q]
            for w, vec in products.items():
                for k, ck in vec:
                    for r, vec2 in rows[k].items():
                        for l, cl in vec2:
                            if l == w:
                                tau_q[r] += ck * cl
        b._trace_table = table
    return b._trace_table


def _contract(u: Sequence[Fraction], v: Sequence[Fraction], b: DgAlgebra,
              nc: int) -> List[Fraction]:
    """Coordinates over A (x) C^op of the middle contraction of u over
    A (x) B^op and v over B (x) C^op: each pair of terms cu a_p (x) e_q and
    cv e_r (x) c_s adds cu cv tau_B[q][r] to slot p nc + s, nc = dim C.
    This is the supertrace of R_u (x) R_v on the composed free kernels.
    Only the nonzero terms are read, in stored form, so integral
    coefficients multiply as ints."""
    table = _pair_trace_table(b)
    nb = b.dim
    out = [0] * (len(u) // nb * nc)
    terms = [divmod(fv, nc) + (cv,) for fv, cv in sparse(v)]
    for fu, cu in sparse(u):
        p, q = divmod(fu, nb)
        row = table[q]
        for r, s, cv in terms:
            t = row[r]
            if t:
                out[p * nc + s] += cu * cv * t
    return out


def pair_scalar(lam: HochschildClass, mu: HochschildClass) -> Fraction:
    """<lambda, mu> = tr(x -> b x a) with b, a representatives of classes
    over A^op and A.

    The contraction of `cup` with A = C = k and middle algebra A: the right
    action of b (x) a on A is x -> b x a.  It is independent of the
    representatives because left and right multiplications commute.
    """
    aop = lam.algebra
    a = mu.algebra
    if not opposite(a).same_structure(aop):
        raise AlgebraMismatch("pairing needs classes over A^op and A")
    if not a.is_degree_zero():
        raise NotDegreeZeroConcentrated("scalar pairing in degree 0 only")
    return Fraction(_contract(lam.representative.coords,
                              mu.representative.coords, a, 1)[0])


def cup(x: HochschildClass, y: HochschildClass, a: DgAlgebra, c: DgAlgebra,
        resolution_b: Optional[DiagonalResolution]) -> HochschildClass:
    """[x] cup_B [y]: HH_0(A (x) B^op) x HH_0(B (x) C^op) -> HH_0(A (x) C^op).

    B is the algebra of its diagonal resolution, the smoothness hypothesis
    of the pairing; the value itself is the trace-table contraction
    `_contract` of the representatives, for every B.
    """
    if resolution_b is None:
        raise NoDiagonalResolutionForB(
            "cup needs a diagonal resolution of the middle algebra")
    b = resolution_b.algebra  # degree 0, as every resolution's algebra is
    if not (a.is_degree_zero() and c.is_degree_zero()):
        raise NotDegreeZeroConcentrated("cup contracted over degree-0 algebras")
    if not x.algebra.same_structure(tensor_algebras(a, opposite(b))):
        raise AlgebraMismatch("first class is not over A (x) B^op")
    if not y.algebra.same_structure(tensor_algebras(b, opposite(c))):
        raise AlgebraMismatch("second class is not over B (x) C^op")
    ac = tensor_algebras(a, opposite(c))
    return hh0_space(ac).class_of(ac.element(_contract(
        x.representative.coords, y.representative.coords, b, c.dim)))


def diagonal_class(resolution: DiagonalResolution) -> HochschildClass:
    """hh_{A^e}(A): the Euler class of the diagonal resolution."""
    return euler_class(resolution.module)


def unit_algebra() -> DgAlgebra:
    return DgAlgebra(["1"], [0], {(0, 0): ((0, ONE),)}, [ONE])


def pairing_three_ways(a: DgAlgebra, resolution: DiagonalResolution,
                       lam: HochschildClass, mu: HochschildClass,
                       env_resolution: DiagonalResolution,
                       cache: dict):
    """The scalar pairing by its three constructions:

    1. the closed-form trace tr(x -> b x a);
    2. the transfer along A as a (k, A^op (x) A)-bimodule applied to the
       Kunneth class, computed as a module-level supertrace on the
       resolution's semi-free presentation of the diagonal;
    3. the diagonal class cupped against the Kunneth class over the
       enveloping algebra.
    Returns the triple of rationals.  `cache` holds what depends on A
    alone (the diagonal class and the transfer), filled on the first call
    with an empty dict; pass the same dict for every pair over one A.
    """
    s1 = pair_scalar(lam, mu)

    ea = tensor_algebras(opposite(a), a)
    if "k" not in cache:
        # the classes live on the instances that cup checks them against,
        # ^eA (x) k^op and k (x) (^eA)^op, so each check is an identity test;
        # the transfer and cup read them through their representatives only,
        # so those spaces, of dimension (dim A)^2, are never presented
        kalg = cache["k"] = unit_algebra()
        cache["right"] = tensor_algebras(ea, opposite(kalg))
        cache["diag"] = euler_class(
            resolution.module, hh0_space(tensor_algebras(kalg, opposite(ea))))
        cache["transfer"] = KernelTransfer(resolution.module, kalg, cache["right"])
    kalg, right = cache["k"], cache["right"]
    # the Kunneth class of lam (x) mu (x) 1 over ^eA (x) k^op
    kclass = hh0_space(right).class_of(right.element(
        pure_tensor(lam.representative.coords, mu.representative.coords)))

    phi = cache["transfer"].apply(kclass)
    s2 = phi.coords[0] if phi.coords else ZERO

    cup_val = cup(cache["diag"], kclass, kalg, kalg, env_resolution)
    s3 = cup_val.coords[0] if cup_val.coords else ZERO
    return s1, s2, s3


# ---------------------------------------------------------------------------
# The trace-formula verifier
# ---------------------------------------------------------------------------

@dataclass
class PairingReport:
    """Exact comparison of the two sides of a class identity: rationals,
    or coordinate tuples of classes."""

    lhs: Union[Fraction, Tuple[Fraction, ...]]
    rhs: Union[Fraction, Tuple[Fraction, ...]]
    instance: str
    seed: Optional[int] = None

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    def to_dict(self):
        return {
            "instance": self.instance,
            "lhs": _rational_text(self.lhs),
            "rhs": _rational_text(self.rhs),
            "equal": self.equal,
            "seed": self.seed,
        }


def _rational_text(x):
    if isinstance(x, tuple):
        return [_rational_text(c) for c in x]
    return f"{x.numerator}/{x.denominator}"


def rr_left_side(n: PerfectModule, g: Optional[ModuleMap],
                 x: AlgebraElement) -> Fraction:
    """l_{N,g}(x), the functional on A whose value at the trace element
    X_{M,f} (`generalized_supertrace`) is hh_k(N (x)_A M, g (x) f).

    g is admitted by `PerfectModule.endomorphism`; a missing one is the
    summand's identity.  The right action of x is tabled once, and each
    key u = e_b g_k of N over A^op adds (-1)^{|b| - s_k} [u] (g(u) . x),
    g(u) = e_b g[k][k] g_k, reading only g's diagonal and A^op's `rows`:
    the left side is independent of the trace table the right side reads,
    and builds no realization, tensor complex, projector or matrix."""
    aop = n.algebra
    if not opposite(aop).same_structure(x.algebra):
        raise AlgebraMismatch("left factor must live over the opposite algebra")
    g = n.identity_map() if g is None else n.endomorphism(g)
    g_diagonal = diagonal(g)
    rows = aop.rows
    # times_x[b][b2] = [e_b](e_t .op e_b2) summed over the terms x_t e_t of x
    times_x: List[Dict] = [{} for _ in rows]
    for t, ct in sparse(x.coords):
        for b2, vec in rows[t].items():
            for b, c in vec:
                times_x[b][b2] = times_x[b].get(b2, 0) + ct * c
    total = 0
    for k, shift in enumerate(n.shifts):
        for b, degree in enumerate(aop.degrees):
            # [u] (g(u) . x) for u = e_b g_k, g(u) = e_b g[k][k] g_k over A^op
            row_b, x_b = rows[b], times_x[b]
            coeff = 0
            for t, c in g_diagonal[k]:
                for b2, c2 in row_b.get(t, ()):
                    w = x_b.get(b2)
                    if w:
                        coeff += c * c2 * w
            total += -coeff if (degree - shift) % 2 else coeff
    return Fraction(total)


def verify_rr(m: PerfectModule, f: ModuleMap, n: PerfectModule, g: ModuleMap,
              instance: str = "", seed: Optional[int] = None,
              space_op: Optional[HH0Space] = None,
              space: Optional[HH0Space] = None) -> PairingReport:
    """Main comparison: the k-valued class of g (x) f on N (x)_A M against
    <hh(N, g), hh(M, f)>, both exact rationals.  The left side is l_{N,g}
    at the representative of hh(M, f), so f is admitted and its trace
    element formed once, by `hh_class`."""
    mu = hh_class(m, f, space)
    lam = hh_class(n, g, space_op)
    return PairingReport(rr_left_side(n, g, mu.representative),
                         pair_scalar(lam, mu), instance, seed)


# ---------------------------------------------------------------------------
# Kernel composition through the middle algebra's diagonal resolution
# ---------------------------------------------------------------------------

def compose_kernels(k1: PerfectModule, k2: PerfectModule, a: DgAlgebra,
                    c: DgAlgebra, resolution_b: DiagonalResolution) -> PerfectModule:
    """K1 (x)_B K2 over A (x) C^op, as K1 (x)_B P (x)_B K2 for the
    diagonal resolution P of B, B the resolution's algebra.

    K1 restricted to A (generators (i, w1) = (1 (x) b_{w1}) g_i) and K2
    restricted to C^op (generators (j, w2) = (b_{w2} (x) 1) h_j) give their
    outer tensor O over k.  Each generator p_g of P, in shift r_g, gives a
    copy of O read as o (x) p_g: generators (g, o), g-major, in shift
    r_g + s_o, each copy with O's twist.  A term c e_s (x) e_t of P's twist
    entry [h][g] adds (-1)^{s_o} c (R_s (x) L_t) from copy g to copy h, R_s
    sending (i, w1) to (i, w1 b_s) and L_t sending (j, w2) to (j, b_t w2).
    P's idempotent acts the same way, unsigned, after O's idempotent, and
    the PerfectModule constructor checks the composite.  For B without
    arrows (one generator e_v (x) e_v in shift 0 per vertex, no twist)
    this is the sum over v of O cut by R_{e_v} L_{e_v}.
    """
    if resolution_b is None:
        raise NoDiagonalResolutionForB("kernel composition needs a resolution")
    b = resolution_b.algebra
    bop, cop = opposite(b), opposite(c)
    if not k1.algebra.same_structure(tensor_algebras(a, bop)):
        raise AlgebraMismatch("first kernel is not over A (x) B^op")
    if not k2.algebra.same_structure(tensor_algebras(b, cop)):
        raise AlgebraMismatch("second kernel is not over B (x) C^op")
    r1 = restrict_to_factor(k1, a, bop, "first")
    r2 = restrict_to_factor(k2, b, cop, "second")
    outer = outer_tensor_modules(r1, r2)
    o, p = outer.module, resolution_b.module
    n = o.rank

    def action(flat: int) -> ModuleMap:
        """R_s (x) L_t on O for the basis element e_s (x) e_t of B^e."""
        s, t = divmod(flat, b.dim)
        right = right_multiplication_map(r1, bop, s)
        left = right_multiplication_map(r2, b, t)
        return ModuleMap.from_columns(o, o, 0, outer_tensor_columns(
            right.columns, left.columns, cop.dim))

    def on_copies(columns, signed: bool) -> list:
        """The columns over (g, o) of a matrix over B^e on P's generators,
        with the sign (-1)^{s_o} on column o when `signed`."""
        out = []
        for col in columns:
            blocks = [(h, sum((action(flat).scale(cf) for flat, cf in vec),
                              ModuleMap.zero(o, o)).columns) for h, vec in col]
            out += [tuple((h * n + j, _neg(v) if signed and s % 2 else v)
                          for h, block in blocks for j, v in block[i])
                    for i, s in enumerate(o.shifts)]
        return out

    def copies(columns) -> list:
        """The block-diagonal columns over (g, o) of a matrix on O."""
        return [_offset(col, g * n) for g in range(p.rank) for col in columns]

    twist = [own + moved for own, moved in zip(
        copies(o.twist_columns), on_copies(p.module.twist_columns, True))]
    q = SemiFreeModule.from_columns(
        o.algebra, [r + s for r in p.shifts for s in o.shifts], twist)
    e = None
    if p.idempotent is not None:
        e = ModuleMap.from_columns(q, q, 0, on_copies(p.idempotent.columns, False))
    if outer.idempotent is not None:
        e_o = ModuleMap.from_columns(q, q, 0, copies(outer.idempotent.columns))
        e = e_o if e is None else e.compose(e_o)
    return PerfectModule(q, e)


def verify_kernel_composition(k1: PerfectModule, k2: PerfectModule,
                              a: DgAlgebra, c: DgAlgebra,
                              resolution_b: DiagonalResolution,
                              instance: str = "",
                              seed: Optional[int] = None) -> PairingReport:
    """hh(K1 (x)_B K2) against hh(K1) cup_B hh(K2): exact class equality in
    HH_0(A (x) C^op), reported as the two coordinate tuples."""
    composed = compose_kernels(k1, k2, a, c, resolution_b)
    lhs_class = euler_class(composed)
    rhs_class = cup(euler_class(k1), euler_class(k2), a, c, resolution_b)
    return PairingReport(lhs_class.coords, rhs_class.coords, instance, seed)
