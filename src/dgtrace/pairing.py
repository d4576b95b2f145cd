"""Trace pairings on degree-zero Hochschild classes and the main verifier.

The middle-algebra contraction of classes [u] over A (x) B^op and [v] over
B (x) C^op composes the corresponding rank-one kernels over B: the balanced
tensor (A (x) B^op) (x)_B (B (x) C^op) is free of rank dim B over A (x) C^op,
the endomorphism R_u (x) R_v transports along it, and the class of its
supertrace is the contraction.  Summed out, that is

    [u] cup_B [v] = sum  tr_B(y -> p y q) [a (x) c]

over tensor terms u = a (x) p, v = q (x) c.  For separable B the same
supertrace is computed through the splitting by the separability idempotent
instead, which realizes the length-0 resolution contraction.

Specializing A = C = k, B = A gives the scalar pairing
<lambda, mu> = tr(x -> b x a) with representatives b, a; the trace-formula
verifier checks it against the supertrace of g (x) f on the balanced tensor
of the modules themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .algebras import AlgebraElement, DgAlgebra, opposite, tensor_algebras
from .complexes import SplitComplex
from .errors import (AlgebraMismatch, NoDiagonalResolutionForB,
                     NotDegreeZeroConcentrated, NotSeparableB)
from .hochschild import (HH0Space, HochschildClass, euler_class, hh0_space,
                         hh_class, hh_class_via_transfer)
from .linalg import ONE, ZERO
from .modules import (ModuleMap, PerfectModule, SemiFreeModule,
                      restrict_to_factor, right_multiplication_map,
                      tensor_over_algebra)
from .resolutions import DiagonalResolution


# ---------------------------------------------------------------------------
# Kunneth
# ---------------------------------------------------------------------------

def kunneth(x: HochschildClass, y: HochschildClass,
            product: Optional[DgAlgebra] = None,
            product_space: Optional[HH0Space] = None) -> HochschildClass:
    """[u] (x) [v] -> [u (x) v] in HH_0(A (x) B)."""
    a, b = x.algebra, y.algebra
    if product is None:
        product = tensor_algebras(a, b)
    if product_space is None:
        product_space = hh0_space(product)
    nb = b.dim
    out = [ZERO] * product.dim
    for i, cu in enumerate(x.representative.coords):
        if cu:
            for j, cv in enumerate(y.representative.coords):
                if cv:
                    out[i * nb + j] += cu * cv
    return product_space.class_of(product.element(out))


# ---------------------------------------------------------------------------
# Phi: the transfer along a bimodule kernel
# ---------------------------------------------------------------------------

class KernelTransfer:
    """Transfer HH_0(B) -> HH_0(A) along a perfect A (x) B^op kernel.

    The kernel is restricted to A once; each class is then sent to the
    Hochschild class of right multiplication by its representative, the
    supertrace compressed sparsely against the restricted idempotent.
    Right multiplication by a degree-0 element is a closed module map of the
    restriction (the middle algebra carries no differential), so no chain
    checks are repeated per class.
    """

    def __init__(self, kernel: PerfectModule, a: DgAlgebra, b: DgAlgebra,
                 space_a: Optional[HH0Space] = None):
        if not (a.is_degree_zero() and b.is_degree_zero()):
            raise NotDegreeZeroConcentrated(
                "transfer maps live over degree-0 algebras")
        self.a = a
        self.b = b
        self.bop = opposite(b)
        self.kernel = kernel
        self.restricted, self.index = restrict_to_factor(
            kernel, a, self.bop, "first", check=False)
        self.space_a = space_a if space_a is not None else hh0_space(a)

    def apply(self, lam: HochschildClass) -> HochschildClass:
        if not lam.algebra.same_structure(self.b):
            raise AlgebraMismatch("class does not live over the middle algebra")
        rmul = right_multiplication_map(
            self.kernel, self.restricted, self.index, self.a, self.bop,
            self.b.element(lam.representative.coords))
        return hh_class_via_transfer(self.restricted, rmul, self.space_a)


# ---------------------------------------------------------------------------
# Scalar pairing
# ---------------------------------------------------------------------------

def pair_scalar(lam: HochschildClass, mu: HochschildClass) -> Fraction:
    """<lambda, mu> = tr(x -> b x a) with b, a representatives of classes
    over A^op and A.

    Closed form of the transfer along the diagonal after the Kunneth map:
    the right action of b (x) a on A is x -> b x a.  It is independent of
    the representatives because left and right multiplications commute.
    """
    aop = lam.algebra
    a = mu.algebra
    if not opposite(a).same_structure(aop):
        raise AlgebraMismatch("pairing needs classes over A^op and A")
    if not a.is_degree_zero():
        raise NotDegreeZeroConcentrated("scalar pairing in degree 0 only")
    table = _pair_trace_table(a)
    x = mu.representative.coords
    total = ZERO
    for q, bq in enumerate(lam.representative.coords):
        if bq:
            row = table[q]
            for r, xr in enumerate(x):
                if xr and row[r]:
                    total += bq * xr * row[r]
    return total


# ---------------------------------------------------------------------------
# Cup: contraction along the middle algebra
# ---------------------------------------------------------------------------

def _pair_trace_table(b: DgAlgebra) -> list:
    """tau[q][r] = tr_B(y -> e_q y e_r) = sum_w [e_w](e_q e_w e_r), memoised
    on the algebra.  Each structure constant e_q e_w = sum_k c_k e_k adds
    c_k [e_w](e_k e_r) to tau[q][r], read from the products with left
    factor e_k."""
    if b._trace_table is None:
        n = b.dim
        by_left = [[] for _ in range(n)]
        for (k, r), vec in b.mult.items():
            by_left[k].append((r, vec))
        table = [[ZERO] * n for _ in range(n)]
        for (q, w), vec in b.mult.items():
            row = table[q]
            for k, ck in vec:
                for r, vec2 in by_left[k]:
                    for l, cl in vec2:
                        if l == w:
                            row[r] += ck * cl
        b._trace_table = table
    return b._trace_table


def _cup_kernel(u: AlgebraElement, v: AlgebraElement, b: DgAlgebra,
                c: DgAlgebra, ac: DgAlgebra) -> AlgebraElement:
    """Supertrace of R_u (x) R_v on the composed free kernels: the trace
    contraction of the middle slots."""
    table = _pair_trace_table(b)
    nb, nc = b.dim, c.dim
    out = [ZERO] * ac.dim
    for fu, cu in enumerate(u.coords):
        if cu:
            p, q = divmod(fu, nb)
            for fv, cv in enumerate(v.coords):
                if cv:
                    r, s = divmod(fv, nc)
                    t = table[q][r]
                    if t:
                        out[p * nc + s] += cu * cv * t
    return ac.element(out)


def _cup_separable(u: AlgebraElement, v: AlgebraElement, b: DgAlgebra,
                   c: DgAlgebra, ac: DgAlgebra,
                   sep: AlgebraElement) -> AlgebraElement:
    """Same supertrace computed through the separability-idempotent
    splitting of the tensor over the ground field (the length-0 resolution
    contraction): generators (w1, w2), projector inserting E = sum p (x) q
    via beta_w1 -> beta_w1 p and beta_w2 -> q beta_w2."""
    nb, nc = b.dim, c.dim
    out = [ZERO] * ac.dim
    eterms = []
    for flat, ce in enumerate(sep.coords):
        if ce:
            t1, t2 = divmod(flat, nb)
            eterms.append((t1, t2, ce))

    for w1 in range(nb):
        for w2 in range(nb):
            for (t1, t2, ce) in eterms:
                for w1p, c1 in b.mult.get((w1, t1), ()):
                    for w2p, c2 in b.mult.get((t2, w2), ()):
                        for fu, cu in enumerate(u.coords):
                            if not cu:
                                continue
                            p, q = divmod(fu, nb)
                            cb1 = b.coefficient(q, w1p, w1)
                            if not cb1:
                                continue
                            for fv, cv in enumerate(v.coords):
                                if not cv:
                                    continue
                                r, s = divmod(fv, nc)
                                cb2 = b.coefficient(w2p, r, w2)
                                if cb2:
                                    out[p * nc + s] += (ce * c1 * c2 * cu * cv
                                                        * cb1 * cb2)
    return ac.element(out)


def cup(x: HochschildClass, y: HochschildClass, a: DgAlgebra, b: DgAlgebra,
        c: DgAlgebra, resolution_b: Optional[DiagonalResolution],
        ac: Optional[DgAlgebra] = None,
        ac_space: Optional[HH0Space] = None) -> HochschildClass:
    """[x] cup_B [y]: HH_0(A (x) B^op) x HH_0(B (x) C^op) -> HH_0(A (x) C^op).

    Requires a diagonal resolution of the middle algebra; separable middle
    algebras contract through their separability idempotent, the rest
    through the composed-kernel supertrace.
    """
    if resolution_b is None:
        raise NoDiagonalResolutionForB(
            "cup needs a diagonal resolution of the middle algebra")
    if not resolution_b.algebra.same_structure(b):
        raise NoDiagonalResolutionForB("resolution is for a different algebra")
    if not (a.is_degree_zero() and b.is_degree_zero() and c.is_degree_zero()):
        raise NotDegreeZeroConcentrated("cup contracted over degree-0 algebras")
    ab = tensor_algebras(a, opposite(b))
    bc = tensor_algebras(b, opposite(c))
    if not x.algebra.same_structure(ab):
        raise AlgebraMismatch("first class is not over A (x) B^op")
    if not y.algebra.same_structure(bc):
        raise AlgebraMismatch("second class is not over B (x) C^op")
    if ac is None:
        ac = tensor_algebras(a, opposite(c))
    if ac_space is None:
        ac_space = hh0_space(ac)
    u = x.representative
    v = y.representative
    if resolution_b.separable:
        elem = _cup_separable(u, v, b, c, ac,
                              resolution_b.separability_idempotent())
    else:
        elem = _cup_kernel(u, v, b, c, ac)
    return ac_space.class_of(elem)


def diagonal_class(resolution: DiagonalResolution,
                   space: Optional[HH0Space] = None) -> HochschildClass:
    """hh_{A^e}(A): the Euler class of the diagonal resolution."""
    return euler_class(resolution.module, space)


def unit_algebra() -> DgAlgebra:
    return DgAlgebra(["1"], [0], {(0, 0): ((0, ONE),)}, [ONE])


def pairing_three_ways(a: DgAlgebra, resolution: DiagonalResolution,
                       lam: HochschildClass, mu: HochschildClass,
                       env_resolution: DiagonalResolution,
                       cache: Optional[dict] = None):
    """The scalar pairing by its three constructions:

    1. the closed-form trace tr(x -> b x a);
    2. the transfer along A as a (k, A^op (x) A)-bimodule applied to the
       Kunneth class, computed as a module-level supertrace on the
       resolution's semi-free presentation of the diagonal;
    3. the diagonal class cupped against the Kunneth class over the
       enveloping algebra.
    Returns the triple of rationals.
    """
    if cache is None:
        cache = {}
    s1 = pair_scalar(lam, mu)

    aop = opposite(a)
    if "ea" not in cache:
        cache["ea"] = tensor_algebras(aop, a)
        cache["ea_space"] = hh0_space(cache["ea"])
        cache["k"] = unit_algebra()
        cache["k_space"] = hh0_space(cache["k"])
        cache["kc"] = tensor_algebras(cache["k"], opposite(cache["k"]))
        cache["kc_space"] = hh0_space(cache["kc"])
        cache["diag"] = diagonal_class(resolution)
        cache["transfer"] = KernelTransfer(resolution.module, cache["k"],
                                           cache["ea"], cache["k_space"])
    ea = cache["ea"]
    kalg = cache["k"]
    kclass = kunneth(lam, mu, ea, cache["ea_space"])

    phi = cache["transfer"].apply(kclass)
    s2 = phi.coords[0] if phi.coords else ZERO

    cup_val = cup(cache["diag"], kclass, kalg, ea, kalg, env_resolution,
                  ac=cache["kc"], ac_space=cache["kc_space"])
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


def rr_left_side(n: PerfectModule, m: PerfectModule,
                 g: Optional[ModuleMap], f: Optional[ModuleMap],
                 tensor: Optional[SplitComplex] = None) -> Fraction:
    """hh_k(N (x)_A M, g (x) f): supertrace of the induced endomorphism of
    the balanced tensor, compressed by the induced idempotent.  `tensor`
    is tensor_over_algebra(n, m) when the caller already built it."""
    sc = tensor if tensor is not None else tensor_over_algebra(n, m)
    t = sc.realization
    gf = t.map_tensor(g.restrict() if g is not None else None, f)
    return sc.supertrace(gf)


def verify_rr(m: PerfectModule, f: ModuleMap, n: PerfectModule, g: ModuleMap,
              instance: str = "", seed: Optional[int] = None,
              space_op: Optional[HH0Space] = None,
              space: Optional[HH0Space] = None,
              tensor: Optional[SplitComplex] = None) -> PairingReport:
    """Main comparison: the k-valued class of g (x) f on N (x)_A M against
    <hh(N, g), hh(M, f)>, both exact rationals; `tensor` as in
    rr_left_side."""
    lhs = rr_left_side(n, m, g, f, tensor)
    lam = hh_class(n, g, space_op)
    mu = hh_class(m, f, space)
    rhs = pair_scalar(lam, mu)
    return PairingReport(lhs, rhs, instance, seed)


# ---------------------------------------------------------------------------
# Kernel composition over a separable middle algebra
# ---------------------------------------------------------------------------

def compose_kernels_separable(k1: PerfectModule, k2: PerfectModule,
                              a: DgAlgebra, b: DgAlgebra, c: DgAlgebra,
                              resolution_b: DiagonalResolution) -> PerfectModule:
    """K1 (x)_B K2 as a perfect module over A (x) C^op, for separable B.

    Generators (i, j, w1, w2) = ((1 (x) b_{w1}) g_i) (x) ((b_{w2} (x) 1) h_j);
    the balanced tensor over B is split off the tensor over k by the
    idempotent inserting the separability element in the middle.
    """
    if resolution_b is None:
        raise NoDiagonalResolutionForB("kernel composition needs a resolution")
    if not resolution_b.separable:
        raise NotSeparableB("kernel composition implemented for separable B")
    bop = opposite(b)
    cop = opposite(c)
    ab = tensor_algebras(a, bop)
    bc = tensor_algebras(b, cop)
    if not k1.algebra.same_structure(ab):
        raise AlgebraMismatch("first kernel is not over A (x) B^op")
    if not k2.algebra.same_structure(bc):
        raise AlgebraMismatch("second kernel is not over B (x) C^op")
    ac = tensor_algebras(a, cop)
    na, nb, nc = a.dim, b.dim, c.dim
    m1, m2 = k1.module, k2.module
    gens = [(i, j, w1, w2)
            for i in range(m1.rank) for j in range(m2.rank)
            for w1 in range(nb) for w2 in range(nb)]
    index = {g: t for t, g in enumerate(gens)}
    shifts = [m1.shifts[i] + m2.shifts[j] for (i, j, _, _) in gens]
    labels = [f"{m1.labels[i]}.{m2.labels[j]}.{w1}.{w2}"
              for (i, j, w1, w2) in gens]

    def expand_left(entry: AlgebraElement, w1: int):
        """(1 (x) b_{w1}) * entry over A (x) B^op: A-coefficients per new
        middle index."""
        out: Dict[int, list] = {}
        for flat, cx in enumerate(entry.coords):
            if cx:
                p, q = divmod(flat, nb)
                for w1p, cb in b.mult.get((q, w1), ()):  # b_q b_{w1} in B
                    vec = out.setdefault(w1p, [ZERO] * na)
                    vec[p] += cx * cb
        return out

    def expand_right(entry: AlgebraElement, w2: int):
        """(b_{w2} (x) 1) * entry over B (x) C^op: C^op-coefficients per new
        middle index."""
        out: Dict[int, list] = {}
        for flat, cx in enumerate(entry.coords):
            if cx:
                r, s = divmod(flat, nc)
                for w2p, cb in b.mult.get((w2, r), ()):
                    vec = out.setdefault(w2p, [ZERO] * nc)
                    vec[s] += cx * cb
        return out

    def with_unit_c(avec) -> AlgebraElement:
        out = [ZERO] * ac.dim
        for p, ca in enumerate(avec):
            if ca:
                for s, cc in enumerate(c.unit):
                    if cc:
                        out[p * nc + s] += ca * cc
        return ac.element(out)

    def with_unit_a(cvec) -> AlgebraElement:
        out = [ZERO] * ac.dim
        for s, cc in enumerate(cvec):
            if cc:
                for p, ca in enumerate(a.unit):
                    if ca:
                        out[p * nc + s] += ca * cc
        return ac.element(out)

    zero = ac.zero()
    tw = [[zero for _ in gens] for _ in gens]
    for (i, j, w1, w2) in gens:
        col = index[(i, j, w1, w2)]
        for i2 in range(m1.rank):
            entry = m1.twist[i2][i]
            if entry.is_zero():
                continue
            for w1p, avec in expand_left(entry, w1).items():
                row = index[(i2, j, w1p, w2)]
                tw[row][col] = tw[row][col] + with_unit_c(avec)
        sgn = ONE if m1.shifts[i] % 2 == 0 else -ONE
        for j2 in range(m2.rank):
            entry = m2.twist[j2][j]
            if entry.is_zero():
                continue
            for w2p, cvec in expand_right(entry, w2).items():
                row = index[(i, j2, w1, w2p)]
                tw[row][col] = tw[row][col] + with_unit_a(cvec).scale(sgn)
    mod = SemiFreeModule(ac, shifts, tw, labels)

    # idempotent: (e1 (x) e2) composed with the separability insertion
    e1 = k1.identity_map()
    e2 = k2.identity_map()
    sep = resolution_b.separability_idempotent()
    eterms = []
    for flat, ce in enumerate(sep.coords):
        if ce:
            t1, t2 = divmod(flat, nb)
            eterms.append((t1, t2, ce))
    rows = [[zero for _ in gens] for _ in gens]
    for (i, j, w1, w2) in gens:
        col = index[(i, j, w1, w2)]
        for i2 in range(m1.rank):
            a_entry = e1.entries[i2][i]
            if a_entry.is_zero():
                continue
            for j2 in range(m2.rank):
                c_entry = e2.entries[j2][j]
                if c_entry.is_zero():
                    continue
                left = expand_left(a_entry, w1)
                right = expand_right(c_entry, w2)
                for w1m, avec in left.items():
                    for w2m, cvec in right.items():
                        for (t1, t2, ce) in eterms:
                            for w1p, cb1 in b.mult.get((w1m, t1), ()):
                                for w2p, cb2 in b.mult.get((t2, w2m), ()):
                                    row = index[(i2, j2, w1p, w2p)]
                                    out = [ZERO] * ac.dim
                                    for p, ca in enumerate(avec):
                                        if ca:
                                            for s, cc in enumerate(cvec):
                                                if cc:
                                                    out[p * nc + s] += (ca * cc * ce
                                                                        * cb1 * cb2)
                                    rows[row][col] = rows[row][col] + ac.element(out)
    idem = ModuleMap(mod, mod, 0, rows)
    return PerfectModule(mod, idem)


def verify_kernel_composition(k1: PerfectModule, k2: PerfectModule,
                              a: DgAlgebra, b: DgAlgebra, c: DgAlgebra,
                              resolution_b: DiagonalResolution,
                              instance: str = "",
                              seed: Optional[int] = None) -> PairingReport:
    """hh(K1 (x)_B K2) against hh(K1) cup_B hh(K2): exact class equality in
    HH_0(A (x) C^op), reported as the two coordinate tuples."""
    composed = compose_kernels_separable(k1, k2, a, b, c, resolution_b)
    ac = composed.algebra
    space = hh0_space(ac)
    lhs_class = euler_class(composed, space)
    ab_space = hh0_space(k1.algebra)
    bc_space = hh0_space(k2.algebra)
    rhs_class = cup(euler_class(k1, ab_space), euler_class(k2, bc_space),
                    a, b, c, resolution_b, ac=ac, ac_space=space)
    return PairingReport(lhs_class.coords, rhs_class.coords, instance, seed)
