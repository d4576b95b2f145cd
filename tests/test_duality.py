from fractions import Fraction

import pytest

from dgtrace import complexes, duality
from dgtrace.algebras import AlgebraIso, opposite, tensor_algebras
from dgtrace.catalog import QUIVERS, matrix_2x2
from dgtrace.cli import main
from dgtrace.complexes import (ChainMap, cohomology_dims, column_blocks,
                               is_quasi_iso, keyed_blocks)
from dgtrace.duality import (DualBimodule, EvaluationData,
                             dual_right_module_data, dualhom_check, dualize,
                             omega_contraction_dims, omega_inverse_module,
                             serre_module_data, serre_tensor)
from dgtrace.errors import AlgebraMismatch, DimensionMismatch, NotClosed
from dgtrace.hochschild import hh0_space, hh_class, hh_via_dualizing
from dgtrace.linalg import span_dim
from dgtrace.modules import (HomOverAlgebra, PerfectModule, TensorOverAlgebra,
                             free_module, hom_over_algebra, projective_module,
                             restrict_to_ground)
from dgtrace.prng import SplitMix64
from dgtrace.resolutions import path_algebra, tensor_resolution
from dgtrace.sampling import EndoSampler, random_perfect, random_semifree
from oracles import linear_dual

F = Fraction


def component_dim(dual: DualBimodule, i: int, j: int) -> int:
    """dim of e_i . A^* . e_j = functionals supported on e_j A e_i: the
    dimension of the image of phi -> e_i phi e_j."""
    n = dual.dim
    rows = [[F(0)] * n for _ in range(n)]
    for x, row in enumerate(rows):
        for (_, y), c in dual.env_data.act(((i * n + j, 1),), (0, x)):
            row[y] += c
    return span_dim(rows, n)


# -- dualize ----------------------------------------------------------------

def test_dual_of_ground(kfield):
    m = free_module(kfield, [0])
    d = dualize(m)
    assert d.module.shifts == (0,)
    assert d.module.algebra.same_structure(kfield)


def test_dual_of_projective_is_opposite_projective(a2):
    P1 = projective_module(a2, a2.by_label("e1"))
    d = dualize(P1)
    assert d.module.algebra.same_structure(opposite(a2))
    # Hom_A(Ae1, A) = e1 A has dimension 2 over A2
    assert restrict_to_ground(d).cohomology_dims().dims == {0: 2}


def test_double_dual_exact_on_random_instances(cat):
    rng = SplitMix64(41)
    for name in ("A2", "M2", "A3", "Kronecker", "kxk"):
        ent = cat[name]
        for _ in range(4):
            p = random_perfect(ent.algebra, rng, ent.idempotents, max_gens=4)
            assert dualize(dualize(p)) == p


def test_dual_twist_is_valid(a2):
    rng = SplitMix64(43)
    for _ in range(5):
        p = random_semifree(a2, rng, max_gens=4)
        d = dualize(p)
        restrict_to_ground(d).carrier.check_d_squared()


def test_dual_matches_hom_into_algebra(cat):
    # D_A(M) realized by the dual-twist presentation has the cohomology of
    # Hom_A(M, A) computed through the independent Hom-complex path
    rng = SplitMix64(101)
    for name in ("A2", "M2", "A3", "Kronecker"):
        a = cat[name].algebra
        for _ in range(3):
            m = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
            via_dual = restrict_to_ground(dualize(m)).cohomology_dims()
            via_hom = hom_over_algebra(m, free_module(a, [0])).cohomology_dims()
            assert via_dual == via_hom, name


def test_serre_matches_dual_of_hom(cat):
    # S(M) = A^* (x)_A M has the cohomology of (Hom_A(M, A))^*
    rng = SplitMix64(103)
    for name in ("A2", "M2", "Kronecker"):
        a = cat[name].algebra
        for _ in range(3):
            m = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
            lhs = serre_tensor(m).cohomology_dims()
            hom = hom_over_algebra(m, free_module(a, [0]))
            rhs = cohomology_dims(linear_dual(hom.carrier))
            assert lhs == rhs, name


# -- bimodule dual ----------------------------------------------------------

def test_dual_bimodule_of_ground(kfield):
    dual = DualBimodule(kfield).validate()
    assert dual.dim == 1


def test_dual_bimodule_a2_components(a2):
    dual = DualBimodule(a2).validate()
    assert dual.dim == 3
    # components e_i A^* e_j pair against e_j A e_i
    table = [[component_dim(dual, i, j) for j in (0, 1)] for i in (0, 1)]
    assert table[0][0] == 1 and table[1][1] == 1
    assert sorted([table[0][1], table[1][0]]) == [0, 1]


def test_dual_bimodule_m2_selfdual(m2):
    """The trace form X -> tr(X .) is a bimodule isomorphism M2 -> M2^*:
    it is invertible and intertwines (a (x) b) . X = a X b with the dual
    action on functionals, on every basis pair."""
    dual = DualBimodule(m2).validate()
    env = dual.env
    n = m2.dim
    from dgtrace.duality import diagonal_explicit
    from dgtrace.linalg import RationalMatrix, rank_of
    diag = diagonal_explicit(m2)
    assert diag.algebra is env

    def trace_functional(x):
        """Coordinates of phi(y) = tr(e_x y) in the dual basis."""
        out = [F(0)] * n
        for y in range(n):
            prod = m2.multiply(tuple(F(1) if t == x else F(0) for t in range(n)),
                               tuple(F(1) if t == y else F(0) for t in range(n)))
            out[y] = prod[0] + prod[3]  # tr = E11 + E22 coefficients
        return out

    tmat = [trace_functional(x) for x in range(n)]
    assert rank_of(RationalMatrix.from_rows(tmat)) == n  # nondegenerate
    for u in range(env.dim):
        for x in range(n):
            # phi_{a x b}
            rhs = [F(0)] * n
            for (_, x2), c in diag.act(((u, 1),), (0, x)):
                for y, cy in enumerate(tmat[x2]):
                    rhs[y] += c * cy
            # (a (x) b) . phi_x
            lhs = [F(0)] * n
            for x2, c in enumerate(tmat[x]):
                for (_, y), cy in dual.env_data.act(((u, c),), (0, x2)):
                    lhs[y] += cy
            assert lhs == rhs


# -- omega inverse ----------------------------------------------------------

def test_omega_inverse_ground(kfield, cat):
    oi = omega_inverse_module(kfield, cat["k"].resolution.module)
    assert oi.rank == 1
    assert restrict_to_ground(oi).cohomology_dims().dims == {0: 1}


def test_omega_inverse_validates_augmentation(cat):
    from dgtrace.duality import omega_inverse
    oi = omega_inverse(cat["A2"].resolution)
    assert oi.rank == 3


def test_omega_inverse_rejects_bad_augmentation(a2):
    from dgtrace.duality import omega_inverse
    from dgtrace.errors import AugmentationNotQuasiIso
    from dgtrace.resolutions import DiagonalResolution, quiver_resolution
    # break the augmentation: send every vertex generator to zero
    module = quiver_resolution(["e1", "e2"], [("a", 0, 1)]).module
    zeros = tuple(a2.zero() for _ in range(module.rank))
    bad = DiagonalResolution(a2, lambda: (module, zeros))
    import pytest
    with pytest.raises(AugmentationNotQuasiIso):
        omega_inverse(bad)


def test_omega_inverse_m2_selfdual(m2, cat):
    oi = omega_inverse_module(m2, cat["M2"].resolution.module)
    assert restrict_to_ground(oi).cohomology_dims().dims == {0: 4}


def test_omega_contraction_equals_algebra(cat):
    for name in ("k", "kxk", "M2", "A2", "A3", "Kronecker", "A2xA2"):
        ent = cat[name]
        a = ent.algebra
        oi = omega_inverse_module(a, ent.resolution.module)
        for order in ("dual_first", "omega_first"):
            dims = omega_contraction_dims(a, oi, order)
            assert dims == a.cohomology_dims(), (name, order)


# -- Serre ------------------------------------------------------------------

def test_serre_identity_on_ground(kfield, cat):
    m = free_module(kfield, [0, 1])
    s = serre_tensor(m)
    assert s.cohomology_dims() == restrict_to_ground(m).cohomology_dims()


def test_serre_of_projectives(a2):
    P1 = projective_module(a2, a2.by_label("e1"))
    P2 = projective_module(a2, a2.by_label("e2"))
    assert serre_tensor(P1).cohomology_dims().dims == {0: 2}
    assert serre_tensor(P2).cohomology_dims().dims == {0: 1}


def test_serre_duality_dimension_identity(cat):
    from dgtrace.duality import hom_into_serre
    for name in ("A2", "A3", "kxk", "M2", "Kronecker"):
        ent = cat[name]
        a = ent.algebra
        dual = DualBimodule(a)
        projs = [projective_module(a, a.basis_element(i))
                 for i in ent.idempotents]
        for y in projs:
            data = serre_module_data(a, y, dual)
            for x in projs:
                lhs = hom_over_algebra(y, x).cohomology_dims().dim(0)
                rhs = hom_into_serre(x, data).cohomology_dims().dim(0)
                assert lhs == rhs, (name, lhs, rhs)


def _left_dual_table(a):
    """The table of A^* as a left A-module built from `mult` directly:
    (i, x) -> the (y, [e_x](e_y e_i)), the reference for the table of
    A^op."""
    return duality._transposed({(i, y): vec for (y, i), vec in a.mult.items()})


def test_dual_table_of_the_opposite_is_the_left_dual_table(cat):
    """A^* as a left A-module is the table of A^op, entries in the same
    order, over every catalog algebra, its opposite and A (x) A^op."""
    for ent in cat.values():
        a = ent.algebra
        for b in (a, opposite(a), tensor_algebras(a, opposite(a))):
            want = _left_dual_table(b)
            got = duality._dual_table(opposite(b))
            assert list(got) == list(want) and got == want, ent.name


def _fresh_algebras():
    """Catalog algebras built anew, so no table is memoised on them yet."""
    fresh = {name: path_algebra(vertices, arrows)
             for name, vertices, arrows in QUIVERS}
    fresh.update(k=path_algebra(["1"], []), kxk=path_algebra(["e1", "e2"], []),
                 M2=matrix_2x2(), A2xA2=tensor_algebras(fresh["A2"], fresh["A2"]))
    return fresh


def test_dual_tables_refuse_a_right_action_as_a_left_one(monkeypatch):
    # without its transpose the table of A^op reads A^* as a right A-module
    # where a left one is wanted
    monkeypatch.setattr(duality, "_transposed", lambda table: table)
    fresh = _fresh_algebras()
    for name in ("M2", "A2", "A3", "Kronecker", "A2xA2"):
        with pytest.raises(AlgebraMismatch):
            DualBimodule(fresh[name]).left_module_data()
    # over a commutative algebra a right action is a left one
    for name in ("k", "kxk"):
        DualBimodule(fresh[name]).left_module_data()


def test_dual_tables_are_checked_once_per_algebra(monkeypatch):
    checked = []
    check = duality._check_module_axiom

    def counting(module):
        checked.append(module.algebra)
        check(module)
    monkeypatch.setattr(duality, "_check_module_axiom", counting)
    a = path_algebra(["e1", "e2"], [("a", 0, 1)])
    m = free_module(a, [0, 1])
    for _ in range(3):
        duality.dual_right_module_data(m.module)
        serre_module_data(a, m)
    assert checked == [opposite(a), a]


def test_verify_serre_fails_on_a_right_action(cat, monkeypatch, capsys):
    monkeypatch.setattr(duality, "_transposed", lambda table: table)
    for ent in cat.values():  # drop the memoised tables for this test
        for a in (ent.algebra, opposite(ent.algebra)):
            monkeypatch.setattr(a, "_dual_table", None)
    assert main(["--seed", "42", "verify-serre"]) != 0
    assert "(e_s e_t) . x" in capsys.readouterr().out


# -- dualhom ----------------------------------------------------------------

def test_dualhom_ground(kfield):
    m = free_module(kfield, [0])
    rep = dualhom_check(m, m)
    assert rep.quasi_iso


def test_dualhom_projector_free_pair(a2):
    n = free_module(a2, [0, 1])
    m = free_module(a2, [0])
    rep = dualhom_check(n, m)
    assert rep.quasi_iso
    assert rep.lhs_dims == rep.rhs_dims


def test_dualhom_random_pairs(cat):
    rng = SplitMix64(47)
    for i in range(12):
        name = ("A2", "M2", "A3", "Kronecker")[i % 4]
        a = cat[name].algebra
        n = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
        m = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
        rep = dualhom_check(PerfectModule(n.module), PerfectModule(m.module))
        assert rep.quasi_iso


def _plain_pairs(cat, per_algebra=4):
    rng = SplitMix64(53)
    for name, ent in cat.items():
        a = ent.algebra
        if not a.is_degree_zero():
            continue
        for _ in range(per_algebra):
            n = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
            m = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
            yield name, PerfectModule(n.module), PerfectModule(m.module)


def _outcome(run):
    """The value of run(), or the class of the refusal it raises."""
    try:
        return run()
    except (DimensionMismatch, NotClosed) as exc:
        return type(exc)


def signed_identity(hom, right, shifts) -> ChainMap:
    """The comparison on matrices, built here: linear_dual(hom.carrier) ->
    right.carrier sending the functional of each Hom key of degree -p to
    (-1)^{p s_i} times the same tensor key, and to 0 where the tensor has
    no such key."""
    dual_basis = {-q: ks for q, ks in hom.basis.items()}

    def image(key):
        if key not in right.pos:
            return ()
        p = right.pos[key][0]
        return ((key, -1 if (p * shifts[key[0]]) % 2 else 1),)
    return ChainMap(linear_dual(hom.carrier), right.carrier, 0,
                    keyed_blocks(dual_basis, right.basis, right.pos, 0, image))


def _both_routes(monkeypatch, n, m, tamper_hom=None, tamper_right=None):
    """The keyed verdict of dualhom_check, and is_quasi_iso on the signed
    identity between the very Hom and tensor it reads (each first passed
    through its tamper, before either complex is assembled)."""
    built = {}

    def recording(cls, name, tamper):
        def build(*args):
            built[name] = cls(*args)
            if tamper is not None:
                tamper(built[name])
            return built[name]
        return build
    monkeypatch.setattr(duality, "HomOverAlgebra",
                        recording(HomOverAlgebra, "hom", tamper_hom))
    monkeypatch.setattr(duality, "TensorOverAlgebra",
                        recording(TensorOverAlgebra, "right", tamper_right))
    keyed = _outcome(lambda: dualhom_check(n, m).quasi_iso)
    monkeypatch.undo()
    return keyed, _outcome(lambda: is_quasi_iso(
        signed_identity(built["hom"], built["right"], n.module.shifts)))


def _first_differential(split):
    """The first key, in degree order, with a nonzero differential, or
    None when every differential is zero."""
    return next((key for p in sorted(split.basis) for key in split.basis[p]
                 if split.d_columns[key]), None)


def test_keyed_verdict_matches_the_cone(cat, monkeypatch):
    seen = set()
    for name, n, m in _plain_pairs(cat):
        keyed, by_cone = _both_routes(monkeypatch, n, m)
        assert keyed == by_cone, name
        seen.add(keyed)
    assert seen == {True}


def test_flipped_comparison_sign_is_refused_on_both_routes(cat, monkeypatch):
    flipped = 0

    def flip(right):
        # one entry of the tensor's differential negated: against the
        # untouched Hom, the comparison's sign fails there
        nonlocal flipped
        key = _first_differential(right)
        if key is not None:
            flipped += 1
            col = right.d_columns[key]
            k2 = next(iter(col))
            right.d_columns[key] = {**col, k2: -col[k2]}
    for name, n, m in _plain_pairs(cat):
        before = flipped
        routes = _both_routes(monkeypatch, n, m, tamper_right=flip)
        if flipped > before:
            assert routes == (NotClosed, NotClosed), name
    assert flipped


def test_unreached_hom_key_is_refused_on_both_routes(cat, monkeypatch):
    """A Hom key that some Hom differential reaches is taken out of every
    Hom differential: the dual's column there becomes zero while the
    tensor's stays nonzero, so every key of the tensor is compared, not
    only those with a nonzero dual column."""
    unreached = 0

    def unreach(hom):
        nonlocal unreached
        key = next((k for col in hom.d_columns.values() for k in col), None)
        if key is not None:
            unreached += 1
            for col in hom.d_columns.values():
                col.pop(key, None)
    for name, n, m in _plain_pairs(cat):
        before = unreached
        routes = _both_routes(monkeypatch, n, m, tamper_hom=unreach)
        if unreached > before:
            assert routes == (NotClosed, NotClosed), name
    assert unreached


def test_extra_left_vector_is_no_quasi_iso_on_either_route(cat, monkeypatch):
    def padded(hom):
        # one more Hom key two degrees below the support, so its functional
        # sits where neither side has keys; its differentials are zero
        q, key = min(hom.basis) - 2, (-1, "pad")
        hom.basis[q], hom.pos[key], hom.d_columns[key] = [key], (q, 0), {}
    for name, n, m in _plain_pairs(cat):
        assert _both_routes(monkeypatch, n, m, tamper_hom=padded) == (False, False), name


def test_dropped_hom_key_is_refused(cat, monkeypatch):
    def dropping(source, target):
        hom = HomOverAlgebra(source, target)
        del hom.pos[hom.basis[min(hom.basis)][0]]
        return hom
    for name, n, m in _plain_pairs(cat):
        monkeypatch.setattr(duality, "HomOverAlgebra", dropping)
        with pytest.raises(DimensionMismatch):
            dualhom_check(n, m)
        monkeypatch.undo()


def test_report_tables_are_the_dual_complexes_cohomology(cat):
    """lhs_dims is H(Hom) with degrees negated, and rhs_dims follows from
    the verified isomorphism: both against the cohomology of the matrix
    complexes, linear_dual(Hom) and the tensor, built here."""
    for name, n, m in _plain_pairs(cat):
        rep = dualhom_check(n, m)
        hom = HomOverAlgebra(n.module, m.module.to_explicit())
        right = TensorOverAlgebra(dual_right_module_data(m.module), n.module)
        assert rep.lhs_dims == cohomology_dims(linear_dual(hom.carrier)), name
        assert rep.rhs_dims == cohomology_dims(right.carrier), name


def test_dualhom_check_assembles_the_hom_alone(cat, monkeypatch):
    """Every realization keeps its differential by keyed columns; the one
    matrix complex a bijective comparison needs is the Hom's, for ranks."""
    assembled, homs = [], []

    def counting(columns, *args):
        assembled.append(columns)
        return column_blocks(columns, *args)

    def recording(*args):
        homs.append(HomOverAlgebra(*args))
        return homs[-1]
    monkeypatch.setattr(complexes, "column_blocks", counting)
    monkeypatch.setattr(duality, "HomOverAlgebra", recording)
    checked = 0
    for name, n, m in _plain_pairs(cat, per_algebra=2):
        assembled.clear()
        assert dualhom_check(n, m).quasi_iso, name
        assert len(assembled) == 1 and assembled[0] is homs[-1].d_columns, name
        checked += 1
    assert checked >= 10


# -- evaluation / coevaluation ----------------------------------------------

def test_evaluation_ground_unit(kfield, cat):
    m = free_module(kfield, [0])
    ev = EvaluationData(m, cat["k"].resolution)
    assert ev.composite_class().coords == (1,)


def test_evaluation_rank_two(kfield, cat):
    m = free_module(kfield, [0, 0])
    ev = EvaluationData(m, cat["k"].resolution)
    assert ev.composite_class().coords == (2,)


def test_evaluation_shifted_cancellation(kfield, cat):
    m = free_module(kfield, [0, 1])
    ev = EvaluationData(m, cat["k"].resolution)
    assert ev.composite_class().coords == (0,)


def test_composite_equals_euler_trace(kfield, cat):
    # the full morphisation cross-check over the ground field
    from dgtrace.sampling import random_module_with_endos
    from dgtrace.complexes import chain_supertrace
    rng = SplitMix64(53)
    for _ in range(4):
        m, sampler = random_module_with_endos(kfield, rng, (), max_gens=3,
                                              shift_range=(-1, 1))
        if m.idempotent is not None:
            continue
        ev = EvaluationData(m, cat["k"].resolution)
        f = sampler.draw(rng)
        assert ev.composite_class(f).coords == (chain_supertrace(f.restrict()),)


def test_composite_class_equals_hh_class(cat):
    """The paper's definition, eps . (f (x) 1) . eta read in HH_0(A),
    against the generalized supertrace over every catalog algebra, on plain
    modules (eta is lifted for those only), twisted ones included."""
    for index, (name, ent) in enumerate(cat.items()):
        rng = SplitMix64(60 + index)
        twisted = 0
        for _ in range(2 if name == "A2xA2" else 6):
            m = random_semifree(ent.algebra, rng, max_gens=3, shift_range=(-1, 1))
            twisted += any(m.module.twist_columns)
            ev = EvaluationData(m, ent.resolution)
            assert ev.composite_class() == hh_class(m, m.identity_map()), name
            sampler = EndoSampler(m)
            for f in (sampler.draw(rng), sampler.draw(rng)):
                assert ev.composite_class(f) == hh_class(m, f), name
        assert twisted, name


def test_evaluation_image_of_projective(a2, cat):
    P2 = projective_module(a2, a2.by_label("e2"))
    ev = EvaluationData(P2, cat["A2"].resolution)
    compressed = ev.eps_chain.compose(ev.x.idempotent.restrict())
    assert compressed.is_closed()
    img = compressed.block(0)
    for j in range(img.cols):
        assert img.entries[0][j] == 0  # no component on e1


def test_coevaluation_of_a_summand_is_refused_before_any_lift(a2, cat):
    P2 = projective_module(a2, a2.by_label("e2"))
    ev = EvaluationData(P2, cat["A2"].resolution)
    with pytest.raises(DimensionMismatch):
        ev.eta_coords
    assert not {"omega_inv", "hom", "eta_coords"} & set(vars(ev))


def test_coevaluation_closed_over_quiver(a2, cat):
    m = free_module(a2, [0, 1])
    ev = EvaluationData(m, cat["A2"].resolution)
    assert any(ev.eta_coords)  # nonzero and closed (asserted on build)


# -- transport --------------------------------------------------------------

def _m2_scaling_iso(m2):
    """E_ij -> (l_i / l_j) E_ij with l = (1, 2): identity on the basis,
    scalars 1, 1/2, 2, 1, and not an involution."""
    return AlgebraIso(m2, m2, [0, 1, 2, 3], [1, F(1, 2), 2, 1]).check()


def _dense_entries(columns, dim):
    out = {}
    for j, col in enumerate(columns):
        for i, vec in col:
            coords = [F(0)] * dim
            for t, c in vec:
                coords[t] = F(c)
            out[(i, j)] = tuple(coords)
    return out


def test_transport_pushes_coefficients_through_the_iso(m2):
    iso = _m2_scaling_iso(m2)
    assert iso.apply(iso.apply((0, 1, 0, 0))) != (0, 1, 0, 0)
    rng = SplitMix64(41)
    moved = 0
    for _ in range(6):
        p = random_perfect(m2, rng, idempotents=(0, 3), max_gens=3)
        q = duality.transport_module(p, iso)
        assert q.module.algebra is m2
        pairs = [(p.module.twist_columns, q.module.twist_columns)]
        if p.idempotent is not None:
            pairs.append((p.idempotent.columns, q.idempotent.columns))
        for before, after in pairs:
            src, dst = _dense_entries(before, 4), _dense_entries(after, 4)
            assert dst == {k: iso.apply(v) for k, v in src.items()}
            moved += src != dst
        assert duality.transport_module(q, iso.inverse()) == p
    assert moved  # some coefficient changes, so the direction is seen


@pytest.mark.parametrize("left,right", [("kxk", "A2"), ("A2", "kxk"),
                                        ("M2", "A2"), ("k", "Kronecker"),
                                        ("A2", "A3")])
def test_tensor_resolution_of_unequal_factors(cat, left, right):
    r = tensor_resolution(cat[left].resolution, cat[right].resolution)
    r.validate()
    assert hh_via_dualizing(r.algebra, r).dim(0) == hh0_space(r.algebra).dim
