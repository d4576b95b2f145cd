from fractions import Fraction

import pytest

from dgtrace import complexes
from dgtrace.algebras import opposite, swap_iso, tensor_algebras
from dgtrace.catalog import catalog_entry, matrix_2x2
from dgtrace.complexes import is_acyclic, keyed_complex
from dgtrace.duality import diagonal_explicit, omega_inverse, transport_module
from dgtrace.errors import (AlgebraMismatch, DegreeViolation,
                            DifferentialSquareViolation,
                            TriangularityViolation, WrongDegree)
from dgtrace.linalg import rank_kernel_image
from dgtrace.modules import (ExplicitModule, HomOverAlgebra, ModuleMap,
                             PerfectModule, SemiFreeModule, TensorOverAlgebra,
                             cone_module, direct_sum_modules,
                             free_module,
                             hom_over_algebra, outer_tensor_modules,
                             projective_module, restrict_to_factor,
                             restrict_to_ground, tensor_over_algebra)
from dgtrace.prng import SplitMix64
from dgtrace.sampling import (closed_map_basis, closed_map_kernel,
                              random_perfect, random_semifree)
from oracles import shift_module

F = Fraction


def test_free_module_dims(kfield, a2):
    assert restrict_to_ground(free_module(kfield, [0])).carrier.space.dims == {0: 1}
    assert restrict_to_ground(free_module(a2, [0])).carrier.space.dims == {0: 3}
    assert restrict_to_ground(free_module(a2, [0, 1])).carrier.space.dims == \
        {-1: 3, 0: 3}


def test_twist_triangularity_enforced(a2):
    e1 = a2.by_label("e1")
    z = a2.zero()
    with pytest.raises(TriangularityViolation):
        SemiFreeModule(a2, [1, 0], [[z, e1], [z, z]])  # entry above filtration


def test_twist_must_square_to_zero(a2):
    """Shifts [2, 1, 0] with delta_10 = e1: delta_21 = a gives
    D^2(g_0) = e1 a g_2 = a g_2, and delta_21 = e2 gives e1 e2 = 0."""
    z = a2.zero()

    def twist(d21):
        return [[z, z, z], [a2.by_label("e1"), z, z], [z, d21, z]]
    with pytest.raises(DifferentialSquareViolation) as err:
        SemiFreeModule(a2, [2, 1, 0], twist(a2.by_label("a")))
    assert str(err.value) == "differential does not square to zero in the module twist"
    m = SemiFreeModule(a2, [2, 1, 0], twist(a2.by_label("e2")))
    m.to_explicit().carrier.check_d_squared()


def test_realizations_share_the_algebra_table(a2):
    """Every generator of a realization acts through `mult` itself."""
    arrow = a2.by_label("a")
    z = a2.zero()
    for m in (SemiFreeModule(a2, [0]), SemiFreeModule(a2, [1, 0], [[z, z], [arrow, z]])):
        assert ExplicitModule.from_semifree(m).table is a2.mult


def test_twist_degree_enforced(a2):
    e1 = a2.by_label("e1")
    z = a2.zero()
    with pytest.raises(DegreeViolation):
        SemiFreeModule(a2, [0, 0], [[z, z], [e1, z]])


def test_cone_of_identity_contractible(a2):
    f = free_module(a2, [0])
    cn = cone_module(ModuleMap.identity(f.module))
    assert is_acyclic(restrict_to_ground(cn).carrier)


def test_cone_of_zero_is_shift_plus_target(a2):
    f = free_module(a2, [0])
    cn = cone_module(ModuleMap.zero(f.module, f.module))
    assert cn.module.shifts == (1, 0)
    assert restrict_to_ground(cn).cohomology_dims().dims == {-1: 3, 0: 3}


def test_cone_requires_closed_degree_zero(a2):
    src = free_module(a2, [0])
    tgt = free_module(a2, [-1])
    mm = ModuleMap(src.module, tgt.module, 1, [[a2.by_label("e1")]])
    with pytest.raises(WrongDegree):
        cone_module(mm)


def test_cone_realizes_simple_module(a2):
    # cone of right multiplication by the arrow: Ae1[stuff]; over A2 the
    # cokernel of a: Ae2 -> A... use map free -> free by the arrow
    f = free_module(a2, [0])
    al = a2.by_label("a")
    mm = ModuleMap(f.module, f.module, 0, [[al]])
    cn = cone_module(mm)
    dims = restrict_to_ground(cn).cohomology_dims()
    # H^0 = coker(right mult by a) has dim 2, H^{-1} = ker has dim 2
    assert dims.dim(0) == 2 and dims.dim(-1) == 2


def test_projective_cone_realizes_simple_module(a2):
    # cone of right multiplication by the arrow between the projectives
    # Ae1 -> Ae2, written directly as a twisted module with a block
    # idempotent: the zeroth cohomology is the simple module at the second
    # vertex (dimension 1)
    al = a2.by_label("a")
    z = a2.zero()
    mod = SemiFreeModule(a2, [1, 0], [[z, z], [al, z]])
    e = ModuleMap(mod, mod, 0,
                  [[a2.by_label("e1"), z], [z, a2.by_label("e2")]])
    p = PerfectModule(mod, e)
    dims = restrict_to_ground(p).cohomology_dims()
    assert dims.dim(0) == 1
    assert dims.total_dim() == 1


def test_restriction_commutes_with_cone(a2):
    rng = SplitMix64(3)
    src = free_module(a2, [0])
    tgt = free_module(a2, [0])
    mm = ModuleMap(src.module, tgt.module, 0, [[a2.by_label("e1")]])
    cn = cone_module(mm)
    from dgtrace.complexes import cone as k_cone
    assert restrict_to_ground(cn).carrier == k_cone(mm.restrict())


def test_restriction_d_squared_random(a2, m2):
    rng = SplitMix64(7)
    for a in (a2, m2):
        for _ in range(5):
            p = random_semifree(a, rng, max_gens=4)
            restrict_to_ground(p).carrier.check_d_squared()


def test_projective_dims(a2):
    P1 = projective_module(a2, a2.by_label("e1"))
    P2 = projective_module(a2, a2.by_label("e2"))
    assert restrict_to_ground(P1).cohomology_dims().dims == {0: 1}
    assert restrict_to_ground(P2).cohomology_dims().dims == {0: 2}


def test_tensor_unit_law(a2):
    # A (x)_A M has the dims and cohomology of M's restriction
    aop = opposite(a2)
    A_right = free_module(aop, [0])
    m = free_module(a2, [0, 1])
    t = tensor_over_algebra(A_right, m)
    restr = restrict_to_ground(m)
    assert t.carrier.space == restr.carrier.space
    assert t.cohomology_dims() == restr.cohomology_dims()


def test_tensor_projectives_oracle(a2):
    aop = opposite(a2)
    P2 = projective_module(a2, a2.by_label("e2"))
    Q1 = projective_module(aop, aop.by_label("e1"))
    Q2 = projective_module(aop, aop.by_label("e2"))
    assert tensor_over_algebra(Q1, P2).cohomology_dims().dims == {0: 1}
    assert tensor_over_algebra(Q2, projective_module(a2, a2.by_label("e1"))
                               ).cohomology_dims().total_dim() == 0


def test_tensor_finiteness_random(cat):
    rng = SplitMix64(11)
    for name in ("A2", "M2", "Kronecker"):
        a = cat[name].algebra
        aop = opposite(a)
        for _ in range(3):
            n = random_semifree(aop, rng, max_gens=3, shift_range=(-1, 1))
            m = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
            t = tensor_over_algebra(n, m)
            t.carrier.check_d_squared()
            assert t.cohomology_dims().total_dim() < 10 ** 6


def test_hom_unit_law(a2):
    # Hom_A(A, N) is the restriction of N
    n = free_module(a2, [0, 1])
    h = hom_over_algebra(free_module(a2, [0]), n)
    restr = restrict_to_ground(n)
    assert h.carrier.space == restr.carrier.space
    assert h.cohomology_dims() == restr.cohomology_dims()


def test_hom_projectives_oracle(a2):
    P1 = projective_module(a2, a2.by_label("e1"))
    P2 = projective_module(a2, a2.by_label("e2"))
    assert hom_over_algebra(P1, P2).cohomology_dims().dim(0) == 1
    assert hom_over_algebra(P2, P1).cohomology_dims().dim(0) == 0


def test_hom_endos_of_free_rank_two(kfield):
    m = free_module(kfield, [0, 0])
    assert hom_over_algebra(m, m).cohomology_dims().dims == {0: 4}


def test_quasi_iso_invariance_of_tensor_and_hom(a2):
    rng = SplitMix64(13)
    aop = opposite(a2)
    n = random_semifree(aop, rng, max_gens=2, shift_range=(-1, 1))
    m = random_semifree(a2, rng, max_gens=2, shift_range=(-1, 1))
    # pad m with a contractible summand
    pad = cone_module(ModuleMap.identity(free_module(a2, [0]).module))
    m_padded = direct_sum_modules(m, pad)
    assert tensor_over_algebra(n, m).cohomology_dims() == \
        tensor_over_algebra(n, m_padded).cohomology_dims()
    assert hom_over_algebra(m, n_to_left(a2, rng)).cohomology_dims() == \
        hom_over_algebra(m_padded, n_to_left(a2, rng)).cohomology_dims()


def n_to_left(a2, rng):
    # fixed target for the Hom comparison (independent of rng state)
    return free_module(a2, [0, 1])


def test_shift_module_flips_sign(a2):
    rng = SplitMix64(17)
    p = random_semifree(a2, rng, max_gens=3)
    sh = shift_module(p, 1)
    r1 = restrict_to_ground(p).carrier
    r2 = restrict_to_ground(sh).carrier
    from dgtrace.complexes import shift as k_shift
    assert r2 == k_shift(r1, 1)


def test_restrict_to_factor_unit_action(a2, kfield):
    prod = tensor_algebras(a2, kfield)
    p = free_module(prod, [0, 1])
    left = restrict_to_factor(p, a2, kfield, "first")
    assert left.module.rank == 2
    assert restrict_to_ground(left).carrier.space.dims == {-1: 3, 0: 3}
    right = restrict_to_factor(p, a2, kfield, "second")
    assert right.module.rank == 6


def test_second_factor_restriction_is_the_first_after_the_swap(cat):
    """Restriction to the second factor of f1 (x) f2 is restriction to the
    first factor of f2 (x) f1 after the swap: the same shifts, twist and
    idempotent columns, on seeded kernels with and without a projective
    summand e_i (x) e_j."""
    with_idempotent = 0
    for seed, (n1, n2) in enumerate((("A2", "A2"), ("M2", "k"), ("k", "A3"),
                                     ("Kronecker", "kxk"), ("A2", "M2"))):
        f1, f2 = cat[n1].algebra, opposite(cat[n2].algebra)
        big = tensor_algebras(f1, f2)
        iso = swap_iso(f1, f2, tensor_algebras(f2, f1))
        idempotents = [i * f2.dim + j for i in cat[n1].idempotents
                       for j in cat[n2].idempotents]
        rng = SplitMix64(seed)
        for _ in range(6):
            p = random_perfect(big, rng, idempotents, max_gens=3,
                               shift_range=(-1, 1))
            second = restrict_to_factor(p, f1, f2, "second")
            first = restrict_to_factor(transport_module(p, iso), f2, f1, "first")
            assert second.algebra is first.algebra is f2
            assert second.module == first.module
            assert (second.idempotent is None) == (first.idempotent is None)
            if p.idempotent is not None:
                with_idempotent += 1
                assert second.idempotent.columns == first.idempotent.columns
    assert with_idempotent


def test_outer_tensor_modules(a2, kfield):
    p1 = free_module(a2, [0])
    p2 = free_module(kfield, [1])
    big = outer_tensor_modules(p1, p2)
    assert big.module.shifts == (1,)
    assert big.algebra.same_structure(tensor_algebras(a2, kfield))
    restrict_to_ground(big).carrier.check_d_squared()


def test_closed_map_basis_matches_hom_h0_counts(cat):
    """Over every catalog algebra, on twisted, twist-free and idempotent-
    carrier pairs, in degrees -1, 0 and 1: the kernel has as many vectors as
    the Hom complex has cycles in that degree, each vector's map is closed,
    by ModuleMap.differential and at the k level through the realization,
    and between twist-free modules the vectors are the unit vectors in key
    order."""
    seen = {"both twisted": 0, "twist-free": 0, "idempotent": 0}
    for index, ent in enumerate(cat.values()):
        a = ent.algebra
        rng = SplitMix64(19 + index)
        mods = [random_perfect(a, rng, ent.idempotents, max_gens=3,
                               shift_range=(-1, 1)) for _ in range(4)]
        mods += [free_module(a, [0, 1]), cone_module(ModuleMap(
            free_module(a, [0]).module, free_module(a, [0]).module, 0,
            [[a.one()]]))]
        for src in mods:
            for tgt in mods:
                s, t = src.module, tgt.module
                twisted = [any(s.twist_columns), any(t.twist_columns)]
                seen["both twisted"] += all(twisted)
                seen["twist-free"] += not any(twisted)
                seen["idempotent"] += (src.idempotent is not None
                                       or tgt.idempotent is not None)
                h = HomOverAlgebra(s, t.to_explicit())
                for degree in (-1, 0, 1):
                    vectors = closed_map_kernel(s, t, degree)
                    cycles = rank_kernel_image(h.carrier.d(degree))[1]
                    assert len(vectors) == cycles.dim
                    for f in closed_map_basis(s, t, degree):
                        assert f.degree == degree and f.is_closed()
                        assert f.restrict().is_closed()
                    if not any(twisted):
                        keys = [(j, i, w) for j in range(t.rank)
                                for i in range(s.rank)
                                if degree + t.shifts[j] == s.shifts[i]
                                for w in range(a.dim)]
                        assert vectors == [((key, 1),) for key in keys]
    assert min(seen.values()) >= 5, seen


def test_realizations_refuse_modules_over_other_algebras(cat):
    """The Hom and tensor realizations check their algebras themselves, not
    only through hom_over_algebra and tensor_over_algebra: unchecked, the
    Hom from omega^{-1} of A2's resolution into the diagonal of kxk had
    cohomology {-1: 1, 0: 1}, and from k's into M2's diagonal {0: 1}."""
    for res_of, diag_of in (("A2", "kxk"), ("k", "M2")):
        omega = omega_inverse(cat[res_of].resolution)
        with pytest.raises(AlgebraMismatch):
            HomOverAlgebra(omega.module, diagonal_explicit(cat[diag_of].algebra))
    a2 = cat["A2"].algebra
    m = free_module(a2, [0])
    with pytest.raises(AlgebraMismatch):
        TensorOverAlgebra(m.module.to_explicit(), m.module)
    with pytest.raises(AlgebraMismatch):
        HomOverAlgebra(m.module, free_module(cat["Kronecker"].algebra, [0])
                       .module.to_explicit())
    left = free_module(opposite(a2), [0]).module.to_explicit()
    assert TensorOverAlgebra(left, m.module).carrier.space.dims == {0: 3}
    assert HomOverAlgebra(m.module, m.module.to_explicit()).carrier.space.dims == {0: 3}


def test_grid_entries_over_another_algebra_are_refused(cat):
    """M2 and Kronecker both have dimension 4, and Kronecker's e1 and e2
    have the coordinates of E11 and E12.  Read by coordinates alone, a map
    over M2 with entry e2 was E12, and a twist entry e1 was E11."""
    m2, kron = cat["M2"].algebra, cat["Kronecker"].algebra
    m = SemiFreeModule(m2, [0])
    with pytest.raises(AlgebraMismatch):
        ModuleMap(m, m, 0, [[kron.by_label("e2")]])
    assert ModuleMap(m, m, 0, [[m2.by_label("E12")]]).columns == (((0, ((1, 1),)),),)
    zero = m2.zero()
    with pytest.raises(AlgebraMismatch):
        SemiFreeModule(m2, [1, 0], [[zero, zero], [kron.by_label("e1"), zero]])
    twisted = SemiFreeModule(m2, [1, 0], [[zero, zero], [m2.by_label("E11"), zero]])
    assert twisted.twist_columns == (((1, ((0, 1),)),), ())


def test_a_projective_over_another_algebra_is_refused():
    """projective_module(M2, Kronecker's e1) built M2.E11, and stored it.
    It raises, on a cold memo and on one that holds M2.E11."""
    m2 = matrix_2x2()
    e1 = catalog_entry("Kronecker").algebra.by_label("e1")
    assert e1.coords == m2.by_label("E11").coords
    with pytest.raises(AlgebraMismatch):
        projective_module(m2, e1)
    assert m2._projectives == {}
    p = projective_module(m2, m2.by_label("E11"))
    with pytest.raises(AlgebraMismatch):
        projective_module(m2, e1)
    assert list(m2._projectives.values()) == [p]


def test_module_map_compose_matches_restriction(a2):
    rng = SplitMix64(23)
    m = random_semifree(a2, rng, max_gens=3, shift_range=(-1, 1))
    fs = closed_map_basis(m.module, m.module, 0)
    if len(fs) >= 2:
        f, g = fs[0], fs[1]
        assert g.compose(f).restrict() == g.restrict().compose(f.restrict())


def test_idempotent_must_be_exact(a2):
    f = free_module(a2, [0])
    one = a2.one()
    bad = ModuleMap(f.module, f.module, 0, [[one + one]])  # 2 is not idempotent
    from dgtrace.errors import IdempotentIncompatible
    with pytest.raises(IdempotentIncompatible):
        PerfectModule(f.module, bad)


def test_off_degree_map_raises_in_every_realization(a2):
    # g0 -> 1.g1 has degree 0 but its entry should have degree 1: the
    # restriction, the tensor realization and the Hom realization all
    # reject it instead of writing the term into a block of another degree,
    # and so do both readers of the summand's endomorphisms: hh_class, and
    # the left side, which admits only g, for the same map on N
    from dgtrace.algebras import sparse
    from dgtrace.hochschild import hh_class
    from dgtrace.pairing import rr_left_side
    m = free_module(a2, [0, 1])
    f = ModuleMap.from_columns(m.module, m.module, 0,
                               [((1, sparse(a2.unit)),), ()])
    aop = opposite(a2)
    n = free_module(aop, [0, 1])
    g = ModuleMap.from_columns(n.module, n.module, 0,
                               [((1, sparse(aop.unit)),), ()])
    with pytest.raises(DegreeViolation):
        f.restrict()
    with pytest.raises(DegreeViolation):
        tensor_over_algebra(n, m).map_tensor(None, f)
    with pytest.raises(DegreeViolation):
        rr_left_side(n, g, a2.one())
    with pytest.raises(DegreeViolation):
        hh_class(m, f)
    with pytest.raises(DegreeViolation):
        hom_over_algebra(m, m).precompose(f)
    # also when the degree the term should land in is empty: g0 sits in
    # degree -5, where the target has no basis, and 1.h0 in degree 0
    far = free_module(a2, [5])
    f = ModuleMap.from_columns(far.module, m.module, 0,
                               [((0, sparse(a2.unit)),)])
    with pytest.raises(DegreeViolation):
        f.restrict()


def test_carrier_is_assembled_once_and_shared_by_copies(cat, monkeypatch):
    """A realization assembles its matrix complex on first read, once, and
    the summand copy that restrict_to_ground makes reads the same complex."""
    built = []

    def counting(basis, pos, d_columns):
        built.append(d_columns)
        return keyed_complex(basis, pos, d_columns)
    monkeypatch.setattr(complexes, "keyed_complex", counting)
    ent = cat["A2"]
    rng = SplitMix64(29)

    def fresh(p):  # the same module with an empty realization memo
        return SemiFreeModule.from_columns(ent.algebra, p.shifts, p.module.twist_columns)
    summands = 0
    for _ in range(4):
        p = random_perfect(ent.algebra, rng, ent.idempotents, max_gens=3)
        m = fresh(p)
        for split in (m.to_explicit(), HomOverAlgebra(m, m.to_explicit())):
            built.clear()
            assert split.carrier is split.carrier
            assert built == [split.d_columns]
        if p.idempotent is not None:
            m = fresh(p)
            built.clear()
            summand = restrict_to_ground(
                PerfectModule(m, ModuleMap.from_columns(m, m, 0, p.idempotent.columns)))
            assert summand.carrier is m.to_explicit().carrier is summand.projector.source
            assert built == [summand.d_columns]
            summands += 1
    assert summands


def test_a_realization_checks_its_differential_on_first_read(kfield):
    """`from_columns` takes a twist unchecked, but the realization's matrix
    complex is built through the checked `Complex` constructor: a twist
    g0 -> g1 -> g2 whose square is g0 -> g2 raises when the carrier is
    first read, and on every read after."""
    unit = ((0, 1),)
    m = SemiFreeModule.from_columns(kfield, [0, -1, -2],
                                    [((1, unit),), ((2, unit),), ()])
    ex = m.to_explicit()
    for _ in range(2):
        with pytest.raises(DifferentialSquareViolation):
            ex.carrier
    with pytest.raises(DifferentialSquareViolation):
        m.validate()
