import gc
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dgtrace.algebras import (DgAlgebra, opposite, pure_tensor, sparse,
                              tensor_algebras, validate_algebra)
from dgtrace.catalog import catalog_entry
from dgtrace.errors import (AlgebraMismatch, IdempotentIncompatible,
                            NoDiagonalResolutionForB)
from dgtrace.hochschild import (euler_class, generalized_supertrace, hh0_space,
                                hh_class)
from dgtrace.modules import (ModuleMap, PerfectModule, SemiFreeModule,
                             built_module, cone_module, direct_sum_modules,
                             free_module, projective_module, restrict_to_factor,
                             right_multiplication_map)
from dgtrace.pairing import (KernelTransfer, compose_kernels, cup,
                             diagonal_class, pair_scalar,
                             pairing_three_ways, unit_algebra,
                             rr_left_side, verify_kernel_composition,
                             verify_rr, _pair_trace_table)
from dgtrace.prng import SplitMix64, stream_for
from dgtrace.resolutions import path_algebra
from oracles import kunneth
from dgtrace.sampling import (EndoSampler, random_coeff, random_module_with_endos,
                              random_perfect)
from dgtrace.suites import adapt_suite, cartan_tables, pairing_coherence_suite

F = Fraction


# -- Kunneth ----------------------------------------------------------------

def test_kunneth_unit(kfield):
    sp = hh0_space(kfield)
    one = sp.class_of(kfield.one())
    out = kunneth(one, one)
    assert out.coords == (F(1),)
    assert out.algebra is tensor_algebras(kfield, kfield)


def test_kunneth_basis_class(a2, kfield):
    spa = hh0_space(a2)
    spk = hh0_space(kfield)
    out = kunneth(spa.class_of(a2.by_label("e1")), spk.class_of(kfield.one()))
    prod_space = out.space
    want = prod_space.project(out.space.algebra.element(
        [F(1), F(0), F(0)]))
    assert out.coords == want


def test_kunneth_m2_square(m2):
    sp = hh0_space(m2)
    e11 = sp.class_of(m2.by_label("E11"))
    out = kunneth(e11, e11)
    assert out.space.dim == 1
    assert any(out.coords)


def test_kunneth_representative_independent(a2):
    sp = hh0_space(a2)
    mu = sp.class_of(a2.by_label("e1"))
    # shift the representative by the commutator [e1, a] = a
    shifted = sp.class_of(a2.by_label("e1") + a2.by_label("a"))
    assert shifted.coords == mu.coords
    spk = hh0_space(unit_algebra())
    one = spk.class_of(unit_algebra().one())
    assert kunneth(mu, one).coords == kunneth(shifted, one).coords


# -- scalar pairing ----------------------------------------------------------

def test_pair_ground(kfield):
    sp = hh0_space(kfield)
    spo = hh0_space(opposite(kfield))
    assert pair_scalar(spo.class_of(opposite(kfield).one()),
                       sp.class_of(kfield.one())) == 1


def test_pair_cartan_a2(a2):
    aop = opposite(a2)
    sp, spo = hh0_space(a2), hh0_space(aop)
    table = [[pair_scalar(spo.class_of(aop.by_label(i)),
                          sp.class_of(a2.by_label(j)))
              for j in ("e1", "e2")] for i in ("e1", "e2")]
    assert table == [[1, 1], [0, 1]]


def test_pair_cartan_a3(a3):
    aop = opposite(a3)
    sp, spo = hh0_space(a3), hh0_space(aop)
    labels = ("e1", "e2", "e3")
    table = [[pair_scalar(spo.class_of(aop.by_label(i)),
                          sp.class_of(a3.by_label(j)))
              for j in labels] for i in labels]
    assert table == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


def test_pair_m2(m2):
    aop = opposite(m2)
    sp, spo = hh0_space(m2), hh0_space(aop)
    assert pair_scalar(spo.class_of(aop.by_label("E11")),
                       sp.class_of(m2.by_label("E11"))) == 1


def test_pair_well_defined_and_bilinear(a2):
    aop = opposite(a2)
    sp, spo = hh0_space(a2), hh0_space(aop)
    lam = spo.class_of(aop.by_label("e1"))
    mu = sp.class_of(a2.by_label("e2"))
    base = pair_scalar(lam, mu)
    # commutator shifts leave the value unchanged (all basis commutators)
    n = a2.dim
    for i in range(n):
        for j in range(n):
            comm = a2.basis_element(i) * a2.basis_element(j) \
                - a2.basis_element(j) * a2.basis_element(i)
            if comm.is_zero():
                continue
            shifted = sp.class_of(mu.representative + comm)
            assert pair_scalar(lam, shifted) == base
    # bilinearity
    mu2 = sp.class_of(a2.by_label("e1"))
    assert pair_scalar(lam, mu + mu2.scale(3)) == \
        base + 3 * pair_scalar(lam, mu2)


# -- cup ---------------------------------------------------------------------

def test_cup_needs_resolution(a2, kfield):
    sp = hh0_space(tensor_algebras(kfield, opposite(a2)))
    lam = sp.basis_classes()[0]
    sp2 = hh0_space(tensor_algebras(a2, opposite(kfield)))
    mu = sp2.basis_classes()[0]
    with pytest.raises(NoDiagonalResolutionForB):
        cup(lam, mu, kfield, kfield, None)


def test_a_resolution_of_another_middle_algebra_is_refused(cat):
    """B is the resolution's algebra, so kernels and classes over M2 beside
    the resolution of kxk or of A3 are over the wrong algebra."""
    kalg = unit_algebra()
    m2 = cat["M2"].algebra
    k1 = free_module(tensor_algebras(kalg, opposite(m2)), [0])
    k2 = free_module(tensor_algebras(m2, opposite(kalg)), [0])
    for name in ("kxk", "A3"):
        resolution = cat[name].resolution
        with pytest.raises(AlgebraMismatch):
            compose_kernels(k1, k2, kalg, kalg, resolution)
        with pytest.raises(AlgebraMismatch):
            verify_kernel_composition(k1, k2, kalg, kalg, resolution)
        with pytest.raises(AlgebraMismatch):
            cup(euler_class(k1), euler_class(k2), kalg, kalg, resolution)


def test_cup_over_ground_is_kunneth(a2, kfield):
    # B = k: the contraction is empty and cup([a], [c]) = [a (x) c]
    ent = catalog_entry("k")
    ak = tensor_algebras(a2, opposite(kfield))
    kc = tensor_algebras(kfield, opposite(a2))
    sp_ak = hh0_space(ak)
    sp_kc = hh0_space(kc)
    lam = sp_ak.class_of(ak.element([F(1)] + [F(0)] * (ak.dim - 1)))
    mu = sp_kc.class_of(kc.element([F(0), F(1), F(0)]))
    out = cup(lam, mu, a2, a2, ent.resolution)
    prod = out.space.algebra
    expected_rep = [F(0)] * prod.dim
    expected_rep[0 * 3 + 1] = F(1)  # e1 (x) e2
    assert out.coords == out.space.project(prod.element(expected_rep))


def test_cup_matches_dense_trace_oracle(cat):
    # [u] cup_B [v] = [sum cu cv tr_B(y -> e_q y e_r) a_p (x) c_s] over the
    # terms cu a_p (x) e_q of u and cv e_r (x) c_s of v, the middle trace
    # taken through the dense product; separable (M2, kxk) and non-separable
    # (A2, Kronecker) middle algebras, with dim A = 3 and dim C = 2 so that
    # both outer slots matter
    a, c = cat["A2"].algebra, cat["kxk"].algebra
    cop = opposite(c)
    ac = tensor_algebras(a, cop)
    sp_ac = hh0_space(ac)
    rng = SplitMix64(83)
    for name in ("M2", "kxk", "A2", "Kronecker"):
        ent = cat[name]
        b = ent.algebra
        ab = tensor_algebras(a, opposite(b))
        bc = tensor_algebras(b, cop)
        nb, nc = b.dim, c.dim
        basis = [b.basis_element(i).coords for i in range(nb)]
        for _ in range(3):
            u = [F(rng.int_in(-2, 2)) for _ in range(ab.dim)]
            v = [F(rng.int_in(-2, 2)) for _ in range(bc.dim)]
            want = [F(0)] * ac.dim
            for fu, cu in enumerate(u):
                p, q = divmod(fu, nb)
                for fv, cv in enumerate(v):
                    r, s = divmod(fv, nc)
                    t = cu * cv * _brute_trace(b, basis[q], basis[r])
                    term = pure_tensor(a.basis_element(p).coords,
                                       cop.basis_element(s).coords)
                    want = [w + t * x for w, x in zip(want, term)]
            out = cup(hh0_space(ab).class_of(ab.element(u)),
                      hh0_space(bc).class_of(bc.element(v)),
                      a, c, ent.resolution)
            assert out.coords == sp_ac.class_of(ac.element(want)).coords, name


def test_unit_law_all_catalog(cat):
    kalg = unit_algebra()
    for name, ent in cat.items():
        a = ent.algebra
        ak = tensor_algebras(a, opposite(kalg))
        sp_ak = hh0_space(ak)
        dclass = diagonal_class(ent.resolution)
        for lam in sp_ak.basis_classes():
            out = cup(dclass, lam, a, kalg, ent.resolution)
            assert out == lam, name


def test_right_unit_law(cat):
    # lam cup_B hh(B) = lam with lam over A (x) B^op; hh(B) is typed over
    # B (x) C^op with C = B
    kalg = unit_algebra()
    for name in ("A2", "M2", "kxk"):
        ent = cat[name]
        b = ent.algebra
        kb = tensor_algebras(kalg, opposite(b))
        sp_kb = hh0_space(kb)
        dclass = diagonal_class(ent.resolution)
        for lam in sp_kb.basis_classes():
            out = cup(lam, dclass, kalg, b, ent.resolution)
            assert out.coords == lam.coords, name


def test_associativity_style_law(cat):
    # (lam cup_A mu) cup_B nu = lam cup_A (mu cup_B nu) on basis classes,
    # realized with A = B = A2 and scalar ends
    kalg = unit_algebra()
    ent = cat["A2"]
    a = ent.algebra
    ka = tensor_algebras(kalg, opposite(a))
    ab = tensor_algebras(a, opposite(a))
    ak = tensor_algebras(a, opposite(kalg))
    sp_ka, sp_ab, sp_ak = hh0_space(ka), hh0_space(ab), hh0_space(ak)
    for lam in sp_ka.basis_classes():
        for mu in sp_ab.basis_classes():
            for nu in sp_ak.basis_classes():
                left = cup(cup(lam, mu, kalg, a, ent.resolution),
                           nu, kalg, kalg, ent.resolution)
                right = cup(lam, cup(mu, nu, a, kalg, ent.resolution),
                            kalg, kalg, ent.resolution)
                assert left.coords == right.coords


# -- phi --------------------------------------------------------------------

def test_phi_of_diagonal_is_identity(cat):
    for name in ("A2", "M2", "kxk"):
        ent = cat[name]
        a = ent.algebra
        sp = hh0_space(a)
        # K = A as the A-A bimodule: Phi_A is the identity on classes
        transfer = KernelTransfer(ent.resolution.module, a, a)
        for lam in sp.basis_classes():
            assert transfer.apply(lam).coords == lam.coords, name


def test_phi_of_free_kernel_traces_the_middle(a2, kfield):
    # K = A (x) B^op free rank 1: Phi([b]) = tr_B(x -> x b) [1_A]
    b = a2
    a = kfield
    ab = tensor_algebras(a, opposite(b))
    K = free_module(ab, [0])
    sp_b = hh0_space(b)
    transfer = KernelTransfer(K, a, b)
    for label in ("e1", "e2", "a"):
        lam = sp_b.class_of(b.by_label(label))
        out = transfer.apply(lam)
        # trace of right multiplication on A2
        x = b.by_label(label)
        tr = F(0)
        for w in range(b.dim):
            ew = tuple(F(1) if t == w else F(0) for t in range(b.dim))
            tr += b.multiply(ew, x.coords)[w]
        assert out.coords == (tr,)


def test_a_kernel_over_other_factors_is_refused(cat):
    """A free kernel over kxk (x) M2^op has the dimension of M2 (x) kxk^op,
    8 = 4 * 2, but not its structure: the transfer along it from kxk to
    M2 and its restriction to M2 as a first factor both raise, while the
    right factors take it."""
    kxk, m2 = cat["kxk"].algebra, cat["M2"].algebra
    kernel = free_module(tensor_algebras(kxk, opposite(m2)), [0])
    with pytest.raises(AlgebraMismatch):
        KernelTransfer(kernel, m2, kxk)
    with pytest.raises(AlgebraMismatch):
        restrict_to_factor(kernel, m2, opposite(kxk), "first")
    KernelTransfer(kernel, kxk, m2)
    assert restrict_to_factor(kernel, kxk, opposite(m2), "first").rank == 4


def test_phi_matches_cup_on_random_kernels(cat):
    kalg = unit_algebra()
    rng = SplitMix64(89)
    for name in ("M2", "A2", "Kronecker"):
        ent = cat[name]
        b = ent.algebra
        a = cat["A2"].algebra
        ab = tensor_algebras(a, opposite(b))
        sp_b = hh0_space(b)
        bk = tensor_algebras(b, opposite(kalg))
        sp_bk = hh0_space(bk)
        for _ in range(2):
            K = random_perfect(ab, rng, idempotents=(), max_gens=3,
                               shift_range=(-1, 1))
            transfer = KernelTransfer(K, a, b)
            hhk = euler_class(K)
            for lam_b in sp_b.basis_classes():
                lam = sp_bk.class_of(bk.element(lam_b.representative.coords))
                lhs = transfer.apply(lam_b)
                rhs = cup(hhk, lam, a, kalg, ent.resolution)
                assert lhs.coords == rhs.coords, name


def test_phi_of_rank_one_projective_kernel(a2, cat):
    # K = the image of right multiplication by e1 (x) e1 on the free rank-1
    # A2 (x) A2^op module: the transfer sends [e_j] to (dim e1 A e_j) [e1]
    ab = tensor_algebras(a2, opposite(a2))
    K = projective_module(ab, ab.element(
        [F(1) if t == 0 else F(0) for t in range(ab.dim)]))  # e1 (x) e1
    sp = hh0_space(a2)
    transfer = KernelTransfer(K, a2, a2)
    e1_class = sp.project(a2.by_label("e1"))
    dims = {"e1": 1, "e2": 1}  # dim e1 A e_j over A2
    kalg = unit_algebra()
    bk = tensor_algebras(a2, opposite(kalg))
    hhk = euler_class(K)
    for label, d in dims.items():
        lam = sp.class_of(a2.by_label(label))
        out = transfer.apply(lam)
        assert out.coords == tuple(F(d) * c for c in e1_class)
        # verified against the contraction route
        lam_bk = hh0_space(bk).class_of(bk.element(lam.representative.coords))
        via_cup = cup(hhk, lam_bk, a2, kalg, cat["A2"].resolution)
        assert via_cup.coords == out.coords


def test_phi_representative_independent(a2):
    ent = catalog_entry("A2")
    a = a2
    sp = hh0_space(a)
    transfer = KernelTransfer(ent.resolution.module, a, a)
    mu = sp.class_of(a.by_label("e1"))
    shifted = sp.class_of(a.by_label("e1") + a.by_label("a"))  # [e1,a] = a
    assert transfer.apply(mu).coords == transfer.apply(shifted).coords


def sparse_random_element(b, rng):
    """A random element of b with about a third of its coordinates zero."""
    return b.element([random_coeff(rng) if rng.below(3) else F(0)
                      for _ in range(b.dim)])


@pytest.mark.parametrize("name", ("k", "kxk", "M2", "A2", "A3", "Kronecker",
                                  "A2xA2"))
def test_phi_table_matches_summed_right_multiplication(cat, name):
    """The one-pass table route of the transfer against the class of the
    supertrace of sum_t x_t R_{b_t}, the right multiplications summed as
    module maps; the table holds one entry per basis element of B^op.  The
    last kernel's idempotent e = [[1, 0], [3, 0]] has an entry off the
    diagonal, between two generators, which the table must not read."""
    b = cat[name].algebra
    a = cat["kxk"].algebra
    ab = tensor_algebras(a, opposite(b))
    idems = [p * b.dim + q for p in cat["kxk"].idempotents
             for q in cat[name].idempotents]
    rng = stream_for(97, len(name))
    kernels = [(random_perfect(ab, rng, idems, max_gens=2, shift_range=(-1, 1)), a)
               for _ in range(3)]
    kernels.append((projective_module(ab, ab.basis_element(idems[-1])), a))
    if b.dim <= 4:
        kernels.append((cat[name].resolution.module, b))
    free = SemiFreeModule(ab, [0, 0])
    one, zero = ab.one(), ab.zero()
    kernels.append((PerfectModule(free, ModuleMap(free, free, 0, [[one, zero],
                                                                 [one.scale(3), zero]])), a))
    with_idempotent = 0
    for kernel, left in kernels:
        transfer = KernelTransfer(kernel, left, b)
        restricted = restrict_to_factor(kernel, left, transfer.bop, "first")
        e = restricted.idempotent
        with_idempotent += e is not None
        assert len(transfer.traces) == transfer.bop.dim
        for _ in range(4):
            x = sparse_random_element(b, rng)
            direct = ModuleMap.zero(restricted.module, restricted.module, 0)
            for t, c in enumerate(x.coords):
                direct = direct + right_multiplication_map(
                    restricted, transfer.bop, t).scale(c)
            if e is not None:
                direct = direct.compose(e)
            want = hh0_space(left).class_of(
                generalized_supertrace(restricted, direct))
            got = transfer.apply(hh0_space(b).class_of(x))
            assert got.representative.coords == want.representative.coords
            assert got.coords == want.coords
    assert with_idempotent >= 1


def test_transfer_over_a_basis_whose_products_are_not_basis_elements(cat):
    """A2 on the basis e1, 1 = e1 + e2, a, where e1 1 = 1 e1 = e1: there
    tr(y -> e1 y e1) = 1, while two basis elements u have u e1 = e1 u, so
    a table that matched b_u b_p against b_t b_u, in place of b_t b_u b_p
    against b_u, would read 2.  On the catalog's bases the two agree.  The
    transfer of each basis class against the supertrace of the right
    multiplication on the restricted kernel."""
    mult = {(0, 0): ((0, 1),), (0, 1): ((0, 1),), (1, 0): ((0, 1),),
            (1, 1): ((1, 1),), (0, 2): ((2, 1),), (1, 2): ((2, 1),),
            (2, 1): ((2, 1),)}
    b = validate_algebra(["e1", "1", "a"], [0, 0, 0], mult, [0, 1, 0])
    a = cat["kxk"].algebra
    bop = opposite(b)
    ab = tensor_algebras(a, bop)
    rng = stream_for(97, 0)
    kernels = [random_perfect(ab, rng, [0, 3], max_gens=2, shift_range=(-1, 1))
               for _ in range(3)] + [projective_module(ab, ab.basis_element(0))]
    for kernel in kernels:
        transfer = KernelTransfer(kernel, a, b)
        restricted = restrict_to_factor(kernel, a, bop, "first")
        for t in range(b.dim):
            rmul = right_multiplication_map(restricted, bop, t)
            if restricted.idempotent is not None:
                rmul = rmul.compose(restricted.idempotent)
            want = hh0_space(a).class_of(generalized_supertrace(restricted, rmul))
            got = transfer.apply(hh0_space(b).class_of(b.basis_element(t)))
            assert got.coords == want.coords


# -- three pairings and the main theorem --------------------------------------

def test_three_pairings_small(cat):
    for name in ("k", "kxk", "M2", "A2", "Kronecker"):
        ent = cat[name]
        a = ent.algebra
        aop = opposite(a)
        sp, spo = hh0_space(a), hh0_space(aop)
        env_res = ent.enveloping_resolution()
        cache = {}
        for lam in spo.basis_classes():
            for mu in sp.basis_classes():
                s1, s2, s3 = pairing_three_ways(a, ent.resolution, lam, mu,
                                                env_res, cache)
                assert s1 == s2 == s3, name


def trace_element(m, f=None):
    """X_{M,f}, the element of A at which the left side is evaluated; a
    missing f is the summand's identity."""
    return generalized_supertrace(
        m, m.identity_map() if f is None else m.endomorphism(f))


def _assert_fractions(values):
    values = list(values)
    assert values and all(type(x) is F for x in values), values


def test_public_scalars_are_fractions(cat):
    """The kernels keep integral scalars as ints; every value handed out is
    a Fraction, zeros and integers included."""
    values = []
    for name in ("k", "A2", "M2", "Kronecker"):
        ent = cat[name]
        a, aop = ent.algebra, opposite(ent.algebra)
        rng = stream_for(5, len(name))
        m, ms = random_module_with_endos(a, rng, ent.idempotents, max_gens=3)
        n, ns = random_module_with_endos(aop, rng, ent.idempotents, max_gens=3)
        f, g = ms.draw(rng), ns.draw(rng)
        zero_n = ModuleMap.zero(n.module, n.module)
        values += [rr_left_side(n, g, trace_element(m, f)),
                   rr_left_side(n, None, trace_element(m))]
        if n.idempotent is None:
            values.append(rr_left_side(n, zero_n, trace_element(m, f)))
        rep = verify_rr(m, f, n, g)
        values += [rep.lhs, rep.rhs]
        lam, mu = hh_class(n, g), hh_class(m, f)
        values += lam.coords + mu.coords
        zero = hh0_space(aop).class_of(aop.zero())
        values += [pair_scalar(lam, mu), pair_scalar(zero, mu)]
        env_res, cache = ent.enveloping_resolution(), {}
        values += pairing_three_ways(a, ent.resolution, lam, mu, env_res, cache)
        values += pairing_three_ways(a, ent.resolution, zero, mu, env_res, cache)
        x, y = a.basis_element(a.dim - 1), a.one()
        values += a.multiply(x.coords, y.coords) + a.multiply(y.coords, y.coords)
        values += (x * y).coords + (y * y).coords + x.coords + y.coords
        values += a.zero().coords + a.element([0] * a.dim).coords
        values += [random_coeff(rng) for _ in range(20)]
    _assert_fractions(values)


def test_three_pairings_compare_algebras_by_identity(cat, monkeypatch):
    """pairing_three_ways builds its classes on the very instances that cup
    and the transfer check them against: once its cache is warm, no
    algebra check walks the structure tables."""
    walked = []
    same = DgAlgebra.same_structure

    def counting(self, other):
        if other is not self:
            walked.append((self, other))
        return same(self, other)
    for name in ("kxk", "A2", "Kronecker"):
        ent = cat[name]
        a, aop = ent.algebra, opposite(ent.algebra)
        sp, spo = hh0_space(a), hh0_space(aop)
        env_res, cache = ent.enveloping_resolution(), {}
        lam0, mu0 = spo.basis_classes()[0], sp.basis_classes()[0]
        pairing_three_ways(a, ent.resolution, lam0, mu0, env_res, cache)
        monkeypatch.setattr(DgAlgebra, "same_structure", counting)
        for lam in spo.basis_classes():
            for mu in sp.basis_classes():
                s1, s2, s3 = pairing_three_ways(a, ent.resolution, lam, mu,
                                                env_res, cache)
                assert s1 == s2 == s3
        monkeypatch.setattr(DgAlgebra, "same_structure", same)
    assert not walked


def test_rr_ground_identity(kfield):
    sp = hh0_space(kfield)
    spo = hh0_space(opposite(kfield))
    m = free_module(kfield, [0])
    n = free_module(opposite(kfield), [0])
    r = verify_rr(m, m.identity_map(), n, n.identity_map())
    assert r.equal and r.lhs == 1


def test_rr_projective_pairs_cartan(a2):
    aop = opposite(a2)
    want = {("e1", "e1"): 1, ("e1", "e2"): 1, ("e2", "e1"): 0, ("e2", "e2"): 1}
    for (i, j), dim in want.items():
        n = projective_module(aop, aop.by_label(i))
        m = projective_module(a2, a2.by_label(j))
        r = verify_rr(m, m.identity_map(), n, n.identity_map())
        assert r.equal and r.lhs == dim


def test_rr_scaled_cone(a2):
    # M a cone of projective-like map, f multiplication by 3: both sides
    # scale linearly
    aop = opposite(a2)
    src = free_module(a2, [0])
    mm = ModuleMap(src.module, src.module, 0, [[a2.by_label("a")]])
    cn = cone_module(mm)
    three = ModuleMap.identity(cn.module).scale(3)
    n = projective_module(aop, aop.by_label("e1"))
    base = verify_rr(cn, cn.identity_map(), n, n.identity_map())
    scaled = verify_rr(cn, three, n, n.identity_map())
    assert base.equal and scaled.equal
    assert scaled.lhs == 3 * base.lhs


def test_rr_left_side_refuses_a_map_off_the_summand(a2):
    """The raw identity of the carrier of P_{e2} = A e2 does not factor
    through e2: the left side refuses it as g, and `hh_class` refuses it as
    f before a trace element is formed, so `verify_rr` refuses it on either
    factor; a missing map is the summand's identity, e2 itself."""
    aop = opposite(a2)
    m = projective_module(a2, a2.by_label("e2"))
    n = projective_module(aop, aop.by_label("e2"))
    raw_m, raw_n = ModuleMap.identity(m.module), ModuleMap.identity(n.module)
    with pytest.raises(IdempotentIncompatible):
        rr_left_side(n, raw_n, trace_element(m))
    with pytest.raises(IdempotentIncompatible):
        hh_class(m, raw_m)
    with pytest.raises(IdempotentIncompatible):
        verify_rr(m, raw_m, n, n.identity_map())
    with pytest.raises(IdempotentIncompatible):
        verify_rr(m, m.identity_map(), n, raw_n)
    assert rr_left_side(n, None, trace_element(m)) == 1
    assert rr_left_side(n, n.identity_map(),
                        trace_element(m, m.identity_map().scale(3))) == 3


def test_rr_left_side_refuses_an_element_over_the_wrong_algebra(a2):
    """l_{N,g} for N over A^op is a functional on A: the trace element of
    P_{e2}, moved to A^op with the same coordinates, is refused."""
    aop = opposite(a2)
    m = projective_module(a2, a2.by_label("e2"))
    n = projective_module(aop, aop.by_label("e2"))
    x = trace_element(m)
    assert rr_left_side(n, None, x) == 1
    with pytest.raises(AlgebraMismatch):
        rr_left_side(n, None, aop.element(x.coords))


def random_degree_zero_element(a, rng):
    return a.element([random_coeff(rng) for _ in range(a.dim)])


def twisted_cone(a, rng, idempotents, summand):
    """The cone of A[s] -> A[s] (+) A[t] over a degree-0 algebra, whose
    entry into A[s] is nonzero, so the twist is nonzero; with summand, plus
    A e for one of the listed idempotents e."""
    s, t = rng.int_in(-1, 1), rng.int_in(-1, 1)
    into_s = random_degree_zero_element(a, rng)
    if into_s.is_zero():
        into_s = a.one()
    into_t = random_degree_zero_element(a, rng) if t == s else a.zero()
    src, tgt = SemiFreeModule(a, [s]), SemiFreeModule(a, [s, t])
    m = cone_module(ModuleMap(src, tgt, 0, [[into_s], [into_t]]))
    if summand:
        e = a.basis_element(idempotents[rng.below(len(idempotents))])
        m = direct_sum_modules(m, projective_module(a, e, rng.int_in(-1, 1)))
    return m


def test_rr_randomized_small_batch(cat):
    """The trace formula on sampled modules, and on twisted cones on both
    sides over every catalog algebra, half of them with a projective
    summand: the sampler gives a module with no twist most of the time."""
    for name in ("A2", "M2", "Kronecker"):
        ent = cat[name]
        a = ent.algebra
        aop = opposite(a)
        sp, spo = hh0_space(a), hh0_space(aop)
        for pi in range(2):
            rng = stream_for(5, pi)
            m, ms = random_module_with_endos(a, rng, ent.idempotents,
                                             max_gens=4)
            n, ns = random_module_with_endos(aop, rng, ent.idempotents,
                                             max_gens=4)
            for _ in range(3):
                r = verify_rr(m, ms.draw(rng), n, ns.draw(rng),
                              space_op=spo, space=sp)
                assert r.equal
    for name, ent in cat.items():
        a = ent.algebra
        aop = opposite(a)
        sp, spo = hh0_space(a), hh0_space(aop)
        twisted = nonzero = 0
        for index, (e_n, e_m) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            rng = stream_for(71, 10 * index + len(name))
            m = twisted_cone(a, rng, ent.idempotents, e_m)
            n = twisted_cone(aop, rng, ent.idempotents, e_n)
            twisted += any(m.module.twist_columns) + any(n.module.twist_columns)
            ms, ns = EndoSampler(m), EndoSampler(n)
            for _ in range(2):
                r = verify_rr(m, ms.draw(rng), n, ns.draw(rng),
                              space_op=spo, space=sp)
                assert r.equal, (name, index, r.lhs, r.rhs)
                nonzero += r.lhs != 0
        assert twisted == 8 and nonzero, name


def test_adapt_identity():
    out = adapt_suite(31)
    assert out["ok"]


def test_cartan_tables_oracle():
    out = cartan_tables()
    assert out["ok"]
    assert out["per_algebra"]["A2"]["table"] == [["1", "1"], ["0", "1"]]
    assert out["per_algebra"]["A3"]["table"] == [["1", "1", "1"],
                                                 ["0", "1", "1"],
                                                 ["0", "0", "1"]]
    assert out["per_algebra"]["Kronecker"]["table"] == [["1", "2"], ["0", "1"]]


# -- kernel composition -------------------------------------------------------

def test_kernel_composition_over_vertex_arrow_middle_algebras(cat):
    """The composite through the vertex/arrow resolutions of A2, A3,
    Kronecker, M2, kxk and k against cup, with A and C in {k, A2}.  The
    kernels may carry a projective summand cut out by e_x (x) e_q (flat
    index x nb + q), for catalog idempotents e_x of A and e_q of B^op, and
    likewise over B (x) C^op; the composite's twist squares to zero, and
    its idempotent is checked by the PerfectModule constructor."""
    instances = carried = nonzero = 0
    for bname in ("A2", "A3", "Kronecker", "M2", "kxk", "k"):
        ent_b = cat[bname]
        b = ent_b.algebra
        for aname, cname in (("k", "k"), ("k", "A2"), ("A2", "k")):
            ent_a, ent_c = cat[aname], cat[cname]
            a, c = ent_a.algebra, ent_c.algebra
            ab = tensor_algebras(a, opposite(b))
            bc = tensor_algebras(b, opposite(c))
            idem_ab = [x * b.dim + q for x in ent_a.idempotents
                       for q in ent_b.idempotents]
            idem_bc = [q * c.dim + y for q in ent_b.idempotents
                       for y in ent_c.idempotents]
            for seed in range(3):
                rng = stream_for(71, 100 * seed + b.dim)
                k1 = random_perfect(ab, rng, idem_ab, max_gens=2,
                                    shift_range=(-1, 1))
                k2 = random_perfect(bc, rng, idem_bc, max_gens=2,
                                    shift_range=(-1, 1))
                composite = compose_kernels(k1, k2, a, c, ent_b.resolution)
                composite.module.validate()
                lhs = euler_class(composite).coords
                rhs = cup(euler_class(k1), euler_class(k2), a, c,
                          ent_b.resolution).coords
                assert lhs == rhs, (bname, aname, cname, seed)
                instances += 1
                carried += (k1.idempotent is not None) + (k2.idempotent is not None)
                nonzero += any(lhs)
    assert instances == 54 and nonzero >= 24 and 40 <= carried < 108


def test_kernel_composition_ground(cat):
    kalg = unit_algebra()
    ent = cat["k"]
    b = ent.algebra
    ab = tensor_algebras(kalg, opposite(b))
    bc = tensor_algebras(b, opposite(kalg))
    rep = verify_kernel_composition(free_module(ab, [0]), free_module(bc, [0]),
                                    kalg, kalg, ent.resolution)
    assert rep.equal


def test_kernel_composition_diagonal(cat):
    ent = cat["M2"]
    m2 = ent.algebra
    rep = verify_kernel_composition(ent.resolution.module,
                                    ent.resolution.module,
                                    m2, m2, ent.resolution)
    assert rep.equal


def test_kernel_composition_column_spaces(cat):
    # K1 = A (x) (column space)^*-style rank-1 kernel, K2 its partner
    kalg = unit_algebra()
    ent = cat["M2"]
    m2 = ent.algebra
    ab = tensor_algebras(kalg, opposite(m2))
    bc = tensor_algebras(m2, opposite(kalg))
    k1 = projective_module(ab, ab.by_label("1(x)E11"))
    k2 = projective_module(bc, bc.by_label("E11(x)1"))
    rep = verify_kernel_composition(k1, k2, kalg, kalg, ent.resolution)
    assert rep.equal


def test_kernel_composition_random(cat):
    from dgtrace.suites import kernel_composition_suite
    out = kernel_composition_suite(8, 97)
    assert out["ok"]


def test_kernel_composition_with_idempotents(cat):
    # random kernels with projective summands cut out by catalog
    # idempotents; with A = C = k, e_q sits at flat index q in both
    # A (x) B^op and B (x) C^op
    kalg = unit_algebra()
    carried = nonzero = 0
    for bname in ("M2", "kxk"):
        ent = cat[bname]
        b = ent.algebra
        ab = tensor_algebras(kalg, opposite(b))
        bc = tensor_algebras(b, opposite(kalg))
        for seed in range(4):
            rng = stream_for(71, 10 * seed + b.dim)
            k1 = random_perfect(ab, rng, ent.idempotents, max_gens=2,
                                shift_range=(-1, 1))
            k2 = random_perfect(bc, rng, ent.idempotents, max_gens=2,
                                shift_range=(-1, 1))
            rep = verify_kernel_composition(k1, k2, kalg, kalg,
                                            ent.resolution)
            assert rep.equal
            carried += (k1.idempotent is not None) + (k2.idempotent is not None)
            nonzero += any(rep.lhs)
    assert carried >= 4 and nonzero >= 4


def test_kernel_composition_compares_coordinates(cat, monkeypatch):
    # (1000003, 0) and (0, 1) agree under a base-1000003 encoding of the
    # coordinates; the report must still see two different classes
    import dgtrace.pairing as pairing
    kalg = unit_algebra()
    ent = cat["k"]
    b = ent.algebra
    ab = tensor_algebras(kalg, opposite(b))
    bc = tensor_algebras(b, opposite(kalg))
    monkeypatch.setattr(pairing, "euler_class",
                        lambda m, space=None: SimpleNamespace(coords=(F(1000003), F(0))))
    monkeypatch.setattr(pairing, "cup",
                        lambda *args, **kw: SimpleNamespace(coords=(F(0), F(1))))
    rep = verify_kernel_composition(free_module(ab, [0]), free_module(bc, [0]),
                                    kalg, kalg, ent.resolution)
    assert not rep.equal
    assert rep.lhs == (F(1000003), F(0)) and rep.rhs == (F(0), F(1))
    assert rep.to_dict()["lhs"] == ["1000003/1", "0/1"]


# -- the structure-constant trace table ------------------------------------

def _small_algebras(cat):
    """Every catalog algebra plus the enveloping algebras up to dim 36."""
    out = [ent.algebra for ent in cat.values()]
    out += [tensor_algebras(opposite(ent.algebra), ent.algebra)
            for ent in cat.values() if ent.algebra.dim ** 2 <= 36]
    return out


def _brute_trace(a, b, x):
    """sum_w [e_w](b e_w x) through the dense product."""
    total = F(0)
    for w in range(a.dim):
        ew = a.basis_element(w).coords
        total += a.multiply(a.multiply(b, ew), x)[w]
    return total


def test_trace_table_and_pairing_match_dense_products(cat):
    rng = SplitMix64(2024)
    for a in _small_algebras(cat):
        n = a.dim
        basis = [a.basis_element(i).coords for i in range(n)]
        table = _pair_trace_table(a)
        assert table == [[_brute_trace(a, basis[q], basis[r]) for r in range(n)]
                         for q in range(n)]
        aop = opposite(a)
        sp, spo = hh0_space(a), hh0_space(aop)
        for _ in range(3):
            b = [F(rng.int_in(-2, 2)) for _ in range(n)]
            x = [F(rng.int_in(-2, 2)) for _ in range(n)]
            lam = spo.class_of(aop.element(b))
            mu = sp.class_of(a.element(x))
            assert pair_scalar(lam, mu) == _brute_trace(a, tuple(b), tuple(x))


def test_derived_tables_live_and_die_with_the_algebra():
    # on a fresh copy of A2: the catalog's algebras live for the process
    a = path_algebra(["e1", "e2"], [("a", 0, 1)])
    env = tensor_algebras(opposite(a), a)
    assert hh0_space(env) is hh0_space(env)
    assert _pair_trace_table(env) is _pair_trace_table(env)
    refs = [weakref.ref(x) for x in (a, opposite(a), env)]
    del a, env
    gc.collect()
    assert [r() for r in refs] == [None] * 3


def test_product_dies_with_its_second_factor(cat):
    k = unit_algebra()
    product = tensor_algebras(cat["A2"].algebra, k)
    assert hh0_space(product) is hh0_space(product)
    ref = weakref.ref(product)
    del k, product
    gc.collect()
    assert ref() is None


def test_cup_on_warm_factors_builds_no_algebra(cat, monkeypatch):
    ent = cat["A2"]
    a = ent.algebra
    kalg = unit_algebra()
    lam = hh0_space(tensor_algebras(a, opposite(a))).basis_classes()[0]
    mu = hh0_space(tensor_algebras(a, opposite(kalg))).basis_classes()[0]
    expected = cup(lam, mu, a, kalg, ent.resolution)

    def refuse(self, *args, **kwargs):
        raise AssertionError("cup built an algebra")
    monkeypatch.setattr(DgAlgebra, "__init__", refuse)
    assert cup(lam, mu, a, kalg, ent.resolution) == expected


def test_kernel_composition_checks_the_composed_idempotent(cat):
    # the outer tensor of the restricted kernels is left unchecked, so a
    # kernel carrying 2e in place of its idempotent e must be caught by the
    # check on the composed idempotent
    for name in ("M2", "kxk", "k", "A2"):
        ent = cat[name]
        b = ent.algebra
        good = ent.resolution.module
        bad = built_module(good.algebra, good.shifts, good.module.twist_columns,
                           good.idempotent.scale(2).columns)
        for k1, k2 in ((bad, good), (good, bad)):
            with pytest.raises(IdempotentIncompatible):
                compose_kernels(k1, k2, b, b, ent.resolution)


def test_pairing_coherence_sees_the_class_coefficients(monkeypatch):
    """A transfer that adds each per-basis trace once, whatever the class's
    coefficient, agrees with cup on every basis class, whose coefficients
    are all 1; the suite's seeded combinations must catch it."""
    apply = KernelTransfer.apply

    def ignoring_coefficients(self, lam):
        ones = [0] * lam.algebra.dim
        for t, _ in sparse(lam.representative.coords):
            ones[t] = 1
        return apply(self, lam.space.class_of(lam.algebra.element(ones)))
    monkeypatch.setattr(KernelTransfer, "apply", ignoring_coefficients)
    out = pairing_coherence_suite(42)
    assert not out["ok"]
    assert not out["transfer_vs_cup"]
