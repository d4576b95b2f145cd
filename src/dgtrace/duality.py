"""Dualizing machinery: module duals, bimodule duals, transports.

The dual of a semi-free module M = (generators g_i, shifts s_i, twist delta)
over A is presented over A^op on generators

    ghat_i = eps(s_i) g_i^vee,   eps(s) = (-1)^{s(s+1)/2},

listed in reversed order with shifts -s_i and twist

    deltahat[lhat][ihat] = -(-1)^{s_i} eps(s_i) eps(s_l) delta[i][l].

With this normalization the double dual returns the original data on the
nose over degree-0 algebras: the eps factors contribute eps(s)eps(-s) =
(-1)^s per slot, cancelling the -(-1)^{s} accumulated by transposing twice.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .algebras import (AlgebraIso, DgAlgebra, env_op_iso, opposite, sparse,
                       tensor_algebras)
from .complexes import GradedSpace, keyed_dual, lower_block
from .errors import (AlgebraMismatch, DimensionMismatch, NotClosed,
                     NotDegreeZeroConcentrated)
from .hochschild import HochschildClass, hh0_space
from .linalg import ZERO, _canon, solve
from .modules import (ExplicitModule, HomOverAlgebra, ModuleMap, PerfectModule,
                      SemiFreeModule, TensorOverAlgebra, built_module,
                      outer_tensor_columns, outer_tensor_modules,
                      restrict_to_factor, semifree_map_to_explicit)


def half_sign(s: int) -> int:
    """eps(s) = (-1)^{s(s+1)/2}."""
    return -1 if (s * (s + 1) // 2) % 2 else 1


def dualize(p: PerfectModule) -> PerfectModule:
    """D_A(M) = Hom_A(M, A) as a perfect module over A^op.

    Exact involution: dualize(dualize(p)) returns p's data unchanged.
    """
    m = p.module
    a = m.algebra
    aop = opposite(a)
    n = m.rank
    # dual generator order is reversed: entry [i][l] lands at [n-1-l][n-1-i],
    # so walking the original columns l backwards fills dual columns top down
    shifts = [-m.shifts[n - 1 - t] for t in range(n)]

    def transposed(columns, signs):
        out = [[] for _ in range(n)]
        for l in reversed(range(n)):
            for i, vec in columns[l]:
                c = signs[i] * half_sign(m.shifts[i]) * half_sign(m.shifts[l])
                out[n - 1 - i].append((n - 1 - l, tuple((t, c * x) for t, x in vec)))
        return out

    idem = None
    if p.idempotent is not None:
        idem = transposed(p.idempotent.columns, [1] * n)
    return built_module(aop, shifts, transposed(
        m.twist_columns, [1 if s % 2 else -1 for s in m.shifts]), idem)


def transport_module(p: PerfectModule, iso: AlgebraIso) -> PerfectModule:
    """Carry a module over iso.source to iso.target, sending every twist and
    idempotent coefficient through iso."""
    if not iso.source.same_structure(p.module.algebra):
        raise AlgebraMismatch("transport iso does not start at the module algebra")
    m = p.module

    def push(columns):
        return [tuple((j, tuple(sorted((iso.perm[t], _canon(c * iso.scalars[t]))
                                       for t, c in vec)))
                      for j, vec in col) for col in columns]

    return built_module(iso.target, m.shifts, push(m.twist_columns),
                        None if p.idempotent is None else push(p.idempotent.columns))


# ---------------------------------------------------------------------------
# Explicit bimodules: the diagonal and the linear dual
# ---------------------------------------------------------------------------

def _sandwich_table(a: DgAlgebra, swap: bool = False) -> Dict[Tuple, List]:
    """Action table of A (x) A on A, flat basis p*n + q: e_p x e_q, or
    e_q x e_p with swap, read from the structure constants."""
    n = a.dim
    rows = a.rows
    acc: Dict[Tuple, Dict] = {}
    for (p, x), vec in a.mult.items():
        for k, c1 in vec:
            for q, vec2 in rows[k].items():
                out = acc.setdefault((q * n + p if swap else p * n + q, x), {})
                for l, c2 in vec2:
                    out[l] = out.get(l, 0) + c1 * c2
    return {key: terms for key, out in acc.items()
            if (terms := [(l, c) for l, c in out.items() if c])}


def _transposed(table) -> Dict[Tuple, List]:
    """(t, k) -> [(k2, c)] read backwards: (t, k2) -> [(k, c)]."""
    out: Dict[Tuple, List] = {}
    for (t, k), terms in table.items():
        for k2, c in terms:
            out.setdefault((t, k2), []).append((k, c))
    return out


def _degree_zero_module(algebra: DgAlgebra, n: int, table) -> ExplicitModule:
    """Rank 1 in degree 0: the keys (0, x), x < n, over the given table."""
    keys = [(0, x) for x in range(n)]
    return ExplicitModule(algebra, {0: keys}, {k: {} for k in keys}, table)


def diagonal_explicit(a: DgAlgebra) -> ExplicitModule:
    """A as an explicit module over A^e = A (x) A^op: (p (x) q) . x = p x q."""
    if not a.is_degree_zero():
        raise NotDegreeZeroConcentrated("diagonal module built in degree 0 only")
    return _degree_zero_module(tensor_algebras(a, opposite(a)), a.dim,
                               _sandwich_table(a))


class DualBimodule:
    """A^* with its two-sided structure over a degree-0 algebra:
    (a (x) b) . phi = (x -> phi(b x a)), i.e. (a phi b)(x) = phi(b x a)."""

    def __init__(self, a: DgAlgebra):
        if not a.is_degree_zero():
            raise NotDegreeZeroConcentrated("bimodule dual built in degree 0 only")
        self.algebra = a
        self.env = tensor_algebras(a, opposite(a))
        self.dim = a.dim

    @cached_property
    def env_data(self) -> ExplicitModule:
        """A^* over A^e, built on first read:
        (e_p (x) e_q) . phi_x = sum_y phi_x(e_q e_y e_p) phi_y."""
        return _degree_zero_module(
            self.env, self.dim, _transposed(_sandwich_table(self.algebra, swap=True)))

    def right_module_data(self) -> ExplicitModule:
        """A^* as a right A-module, (phi . a)(x) = phi(a x), presented over
        A^op for the tensor machinery: e_i . phi_x = sum_y [e_x](e_i e_y)
        phi_y."""
        a = self.algebra
        return _degree_zero_module(opposite(a), a.dim, _dual_table(a))

    def left_module_data(self) -> ExplicitModule:
        """A^* as a left A-module, (a . phi)(x) = phi(x a): e_i . phi_x =
        sum_y [e_x](e_y e_i) phi_y."""
        a = self.algebra
        return _degree_zero_module(a, a.dim, _dual_table(opposite(a)))

    def validate(self):
        """Module axioms over A^e on all basis pairs."""
        _check_module_axiom(self.env_data)
        return self


def _check_module_axiom(module: ExplicitModule) -> None:
    """e_s . (e_t . x) = (e_s e_t) . x for all basis elements s, t of the
    module's algebra and every key x, else AlgebraMismatch."""
    alg = module.algebra
    act = module.act

    def merged(terms):
        out: Dict = {}
        for key, c in terms:
            out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if c}

    for x in (key for keys in module.basis.values() for key in keys):
        once = [act(((t, 1),), x) for t in range(alg.dim)]
        for s in range(alg.dim):
            for t, terms in enumerate(once):
                twice = [term for y, c in terms for term in act(((s, c),), y)]
                if merged(twice) != merged(act(alg.mult.get((s, t), ()), x)):
                    raise AlgebraMismatch(
                        "action table fails e_s . (e_t . x) = (e_s e_t) . x at "
                        f"s = {alg.labels[s]}, t = {alg.labels[t]}, x = {x}")


def _dual_table(a: DgAlgebra) -> Dict[Tuple, List]:
    """The table of A^* as a left A^op-module, the transpose of `mult`:
    (i, x) -> the (y, [e_x](e_i e_y)).  Memoised on the algebra and checked
    against the module axiom once, when built.  A^* as a left A-module is
    the table of A^op, `_dual_table(opposite(a))`."""
    if a._dual_table is None:
        table = _transposed(a.mult)
        _check_module_axiom(_degree_zero_module(opposite(a), a.dim, table))
        a._dual_table = table
    return a._dual_table


# ---------------------------------------------------------------------------
# Dualizing objects
# ---------------------------------------------------------------------------

def omega_inverse_module(a: DgAlgebra, resolution: PerfectModule) -> PerfectModule:
    """Hom_{A^e}(P, A^e) for a diagonal resolution P, transported back to a
    left A^e-module along (A^e)^op = A^e, y (x) x -> x (x) y."""
    return transport_module(dualize(resolution), env_op_iso(a).inverse())


def omega_inverse(resolution) -> PerfectModule:
    """Inverse dualizing module from a diagonal resolution; validates the
    augmentation first (AugmentationNotQuasiIso on a bad resolution)."""
    resolution.validate()
    return omega_inverse_module(resolution.algebra, resolution.module)


def serre_tensor(m: PerfectModule,
                 dual: Optional[DualBimodule] = None) -> TensorOverAlgebra:
    """S(M) = A^* (x)_A M as an explicit complex (right A-structure of A^*
    contracted against the semi-free presentation of M), A = M's algebra,
    of degree 0 as `DualBimodule` requires."""
    if dual is None:
        dual = DualBimodule(m.algebra)
    return TensorOverAlgebra(dual.right_module_data(), m.module, m.idempotent)


def serre_module_data(a: DgAlgebra, m: PerfectModule,
                      dual: Optional[DualBimodule] = None) -> ExplicitModule:
    """S(M) as an explicit left A-module carrying the projector of S(M),
    the target of Hom into the Serre image."""
    if dual is None:
        dual = DualBimodule(a)
    sc = serre_tensor(m, dual)
    # the tensor's keys (i, (0, x)) read as (generator i of m, dual-basis
    # index x); A acts on the A^* factor
    basis = {p: [(i, x) for i, (_, x) in keys] for p, keys in sc.basis.items()}
    d_columns = {(i, x): {(j, y): c for (j, (_, y)), c in col.items()}
                 for (i, (_, x)), col in sc.d_columns.items()}
    return ExplicitModule(a, basis, d_columns, _dual_table(opposite(a)),
                          sc.projector)


def hom_into_serre(x: PerfectModule, serre_data: ExplicitModule) -> HomOverAlgebra:
    """Hom_A(X, S(Y)) from serre_module_data output, compressing by both
    idempotents."""
    return HomOverAlgebra(x.module, serre_data, x.idempotent)


def omega_contraction_dims(a: DgAlgebra, omega_inv: PerfectModule,
                           order: str = "dual_first") -> GradedSpace:
    """Cohomology dims of A^* (x)_A omega^{-1} (order="dual_first") or
    omega^{-1} (x)_A A^* (order="omega_first"); both should equal the dims
    of A for a sound dualizing pair."""
    dual = DualBimodule(a)
    # omega_first is A^* (x)_{A^op} omega^{-1}: the semi-free factor is
    # omega^{-1} restricted to A^op, and A^* is a left A = (A^op)^op module
    if order == "dual_first":
        side, dual_data = "first", dual.right_module_data()
    else:
        side, dual_data = "second", dual.left_module_data()
    restricted = restrict_to_factor(omega_inv, a, opposite(a), side)
    return TensorOverAlgebra(dual_data, restricted.module,
                             restricted.idempotent).cohomology_dims()


# ---------------------------------------------------------------------------
# Dual-Hom comparison
# ---------------------------------------------------------------------------

class DualHomReport:
    def __init__(self, lhs_dims, rhs_dims, quasi_iso):
        self.lhs_dims = lhs_dims
        self.rhs_dims = rhs_dims
        self.quasi_iso = quasi_iso


def dual_right_module_data(m: SemiFreeModule) -> ExplicitModule:
    """M^* as an explicit right A-module (left A^op): (mu.a)(x) = mu(a x),
    so e_t . mu_(i, b) = sum_b2 [e_b](e_t e_b2) mu_(i, b2), over the
    transpose of `mult`.  The functional mu_key keeps the key of M's
    realization, and the differential is its keyed transpose
    (`keyed_dual`), -(-1)^p (d^{-p-1})^T in degree p."""
    ex = m.to_explicit()
    basis, d_columns = keyed_dual(ex.basis, ex.d_columns)
    return ExplicitModule(opposite(m.algebra), basis, d_columns,
                          _dual_table(m.algebra))


# ---------------------------------------------------------------------------
# Evaluation and coevaluation
# ---------------------------------------------------------------------------

class EvaluationData:
    """The pair (eta, epsilon) on X = M (x) D_A M over A^e.

    epsilon: X -> A is the contraction pairing a generator g_i against the
    dual generator ghat_j: delta_ij (-1)^{s_i} eps(s_i), the unique sign rule
    making it a chain map for the shipped dual-twist normalization.

    eta: omega^{-1} -> X is the image of the identity of M: the identity
    tensor sum_k eps(s_k) 1 (x) (g_k (x) ghat_k) is lifted through the
    transported resolution to a cycle of D(omega^{-1}) (x)_{A^e} X, then
    carried over by the signed basis bijection with Hom(omega^{-1}, X).
    """

    def __init__(self, m: PerfectModule, resolution):
        a = resolution.algebra
        if not a.is_degree_zero():
            raise NotDegreeZeroConcentrated("evaluation data in degree 0 only")
        self.algebra = a
        self.m = m
        self.dual = dm = dualize(m)
        self.x = x_mod = outer_tensor_modules(m, dm)
        n = m.rank

        # epsilon
        diag = diagonal_explicit(a)
        self.diag = diag
        values = []
        for flat in range(n * n):
            i, jslot = divmod(flat, n)  # generator i of M, jslot of D_A M
            if i == n - 1 - jslot:
                s = m.module.shifts[i]
                sgn = half_sign(s) * (-1 if s % 2 else 1)
                values.append([((0, t), sgn * c)
                               for t, c in enumerate(a.unit) if c])
            else:
                values.append([])
        self.eps_chain = semifree_map_to_explicit(x_mod.module, diag, 0, values)
        if not self.eps_chain.is_closed():
            raise NotClosed("evaluation map failed to close")

        # eta is lifted on demand (plain semi-free modules only)
        self.resolution = resolution

    @cached_property
    def omega_inv(self) -> PerfectModule:
        return omega_inverse(self.resolution)

    @cached_property
    def hom(self) -> HomOverAlgebra:
        return HomOverAlgebra(self.omega_inv.module, self.x.module.to_explicit())

    @cached_property
    def eta_coords(self):
        if self.m.idempotent is not None:
            raise DimensionMismatch(
                "coevaluation is lifted for plain semi-free modules")
        return self._lift_identity()

    def _lift_identity(self):
        a = self.algebra
        m = self.m
        n = m.rank
        p_breve = transport_module(self.resolution.module, env_op_iso(a))
        dual_check = dualize(self.omega_inv)
        if dual_check.module != p_breve.module:
            raise DimensionMismatch("resolution transport out of line")
        left = p_breve.module.to_explicit()
        t_cx = TensorOverAlgebra(left, self.x.module)
        breve_a = _opposite_diagonal_explicit(a, p_breve.module.algebra)
        t_aug = TensorOverAlgebra(breve_a, self.x.module)
        aug_chain = semifree_map_to_explicit(
            p_breve.module, breve_a, 0,
            [[((0, t), c) for t, c in enumerate(v.coords) if c]
             for v in self.resolution.augmentation])
        q = t_cx.map_tensor(aug_chain, None, t_aug)

        # identity tensor in degree 0 of t_aug
        t_vec = [ZERO] * t_aug.carrier.dim(0)
        for k in range(n):
            gen = k * n + n - 1 - k
            sgn = half_sign(m.module.shifts[k])
            for bidx, cu in enumerate(a.unit):
                if cu:
                    pos = t_aug.pos[(gen, (0, bidx))]
                    if pos[0] != 0:
                        raise DimensionMismatch("identity tensor off degree 0")
                    t_vec[pos[1]] += sgn * cu
        # check it is a cycle in the augmented tensor
        if any(x for x in t_aug.carrier.d(0).apply(tuple(t_vec))):
            raise NotClosed("identity tensor is not a cycle")

        # solve: d_T z = 0 and q(z) = t_id + d(w), the system
        # [[d_T, 0], [q, -d]] (z, w) = (0, t_id)
        system = lower_block(t_cx.carrier.d(0), q.block(0), -t_aug.carrier.d(-1))
        sol = solve(system, [ZERO] * t_cx.carrier.dim(1) + t_vec)
        if sol is None:
            raise DimensionMismatch("identity tensor does not lift")
        z = sol[:t_cx.carrier.dim(0)]

        # carry over to Hom(omega^{-1}, X) by the signed basis bijection:
        # T-basis (j, (slot, b)) -> eps(sigma) (-1)^{sigma tau_j} (gen, (j, b))
        eta = [ZERO] * self.hom.carrier.dim(0)
        rank_w = self.omega_inv.rank
        for col, coeff in enumerate(z):
            if not coeff:
                continue
            j, key = t_cx.basis[0][col]
            slot, b = key
            kappa = rank_w - 1 - slot
            sigma = self.omega_inv.module.shifts[kappa]
            tau = self.x.module.shifts[j]
            sgn = half_sign(sigma)
            if (sigma * tau) % 2 != 0:
                sgn = -sgn
            hom_key = (kappa, (j, b))
            hp, hr = self.hom.pos[hom_key]
            if hp != 0:
                raise DimensionMismatch("basis bijection off degree 0")
            eta[hr] += sgn * coeff
        eta = tuple(eta)
        dh = self.hom.carrier.d(0)
        if any(x for x in dh.apply(eta)):
            raise NotClosed("coevaluation failed to close")
        return eta

    def eta_evaluated(self, f: Optional[ModuleMap] = None):
        """Coordinates in Hom(omega^{-1}, A) of eps . (f (x) id) . eta
        (f = None for the identity)."""
        step = self.eta_coords
        target_hom = HomOverAlgebra(self.omega_inv.module, self.diag)
        if f is not None:
            # f (x) id on the outer tensor M (x) D_A M
            x = self.x.module
            fx = ModuleMap.from_columns(x, x, 0, outer_tensor_columns(
                f.columns, ModuleMap.identity(self.dual.module).columns,
                self.algebra.dim))
            carry = self.hom.postcompose_into(self.hom, fx.restrict())
            step = carry.block(0).apply(step)
        carry = self.hom.postcompose_into(target_hom, self.eps_chain)
        return target_hom, carry.block(0).apply(step)

    def composite_class(self, f: Optional[ModuleMap] = None) -> HochschildClass:
        """The class in HH_0(A) of the cocycle eps . (f (x) id) . eta of
        Hom_{A^e}(omega^{-1}, A) (f = None for the identity), read along
        P (x)_{A^e} A -> A (x)_{A^e} A = A/[A,A]: the Hom key (kappa, (0, x))
        with coefficient c adds c aug(g) e_x, g the resolution generator that
        the dual generator kappa is dual to (`dualize` reverses the order).
        A boundary adds nothing, since aug . d = 0."""
        target_hom, coords = self.eta_evaluated(f)
        a = self.algebra
        aug = self.resolution.augmentation
        total = [ZERO] * a.dim
        for (kappa, (_, x)), c in zip(target_hom.basis.get(0, ()), coords):
            if c:
                a.add_product(total, sparse(aug[-1 - kappa].coords), ((x, c),))
        return hh0_space(a).class_of(a.element(total))


def _opposite_diagonal_explicit(a: DgAlgebra, env_op: DgAlgebra) -> ExplicitModule:
    """A^op as an explicit right-A^e module (= left (A^e)^op): the element
    p (x) q of A^e read backwards through the swap, x -> e_q x e_p."""
    return _degree_zero_module(env_op, a.dim, _sandwich_table(a, swap=True))


def dualhom_check(n: PerfectModule, m: PerfectModule) -> DualHomReport:
    """(Hom_A(N, M))^* vs M^* (x)_A N with the explicit comparison map
    mu (x) g_i -> (phi -> (-1)^{|phi| |g_i|} mu(phi(g_i))).

    The comparison sends each key of M^* (x)_A N to the same key of the
    dual Hom with a sign s, and refuses a key missing there or in another
    degree, so it is injective on bases; it is bijective exactly when the
    two keyed bases have equal counts in every degree.  It is a chain map
    exactly when s(k) d_lhs[k2][k] = s(k2) d_rhs[k2][k] for every key k of
    the tensor and every key k2 of either side, d_lhs read off the keyed
    transpose of the Hom's differential (NotClosed otherwise), so no
    matrix of either dual is formed.  A closed map that is bijective on
    bases is an isomorphism of complexes, so the verdict is "closed and
    equal counts".  Both bases are built on the same keys, so unequal
    counts mean a wrong construction and are reported as no
    quasi-isomorphism.  The report records both cohomology tables and the
    verdict: lhs_dims is H(Hom) with degrees negated (a transpose keeps
    every rank), and rhs_dims follows from the verified isomorphism, read
    off the tensor's own complex only when the comparison is not one.
    Degree-0 algebras only: the sign above and the table of M^* over A^op
    carry no Koszul sign of a graded coefficient.
    """
    if not n.algebra.is_degree_zero():
        raise NotDegreeZeroConcentrated("dual-Hom comparison in degree 0 only")
    if n.idempotent is not None or m.idempotent is not None:
        raise DimensionMismatch("dualhom comparison expects plain semi-free modules")
    hom = HomOverAlgebra(n.module, m.module.to_explicit())
    right = TensorOverAlgebra(dual_right_module_data(m.module), n.module)
    if any(not hom.basis.get(-p) for p in right.basis):
        raise DimensionMismatch("dualhom bases out of line")
    # the tensor key mu (x) g_i of degree p is the functional of the Hom
    # key phi = (i, mu_key), of Hom degree -p
    for p, keys in right.basis.items():
        if any(hom.pos.get(key, (None,))[0] != -p for key in keys):
            raise DimensionMismatch("dualhom comparison misses a basis vector")
    shifts = n.module.shifts

    def sign(key, p):
        # (-1)^{|phi| |g_i|}, |phi| = -p, |g_i| = -s_i
        return -1 if (p * shifts[key[0]]) % 2 else 1
    _, d_lhs = keyed_dual(hom.basis, hom.d_columns)
    for p, keys in right.basis.items():
        for key in keys:
            lhs, rhs, s = d_lhs[key], right.d_columns[key], sign(key, p)
            if lhs.keys() != rhs.keys() or any(
                    s * c != sign(k2, p + 1) * rhs[k2] for k2, c in lhs.items()):
                raise NotClosed("dualhom comparison is not a chain map")
    lhs_dims = GradedSpace({-q: h for q, h in hom.cohomology_dims().dims.items()})
    bijective = (GradedSpace({p: len(ks) for p, ks in right.basis.items()})
                 == GradedSpace({-q: len(ks) for q, ks in hom.basis.items()}))
    return DualHomReport(lhs_dims, lhs_dims if bijective else right.cohomology_dims(),
                         bijective)
