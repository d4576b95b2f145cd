"""The coordinate-level main-theorem pipeline against dense references.

Sampling in kernel coordinates against scaling and adding the ModuleMaps of
closed_map_basis; sparse ModuleMap products against entry-by-entry
products through AlgebraElement.__mul__ (the dense DgAlgebra.multiply
scan), and the class of the supertrace of f.e against that of the dense
e.f.e, and the diagonal of f.g read without forming it against that of the
dense f.g; the tr(f.e) supertrace of a split complex against the supertrace of
the formed e.f.e; the keyed-diagonal left side of the trace formula against
the supertrace on the tensor complex, over the catalog and over dg
algebras; every explicit module's action table against products through
the dense DgAlgebra.multiply scan; the one
restriction kernel (ModuleMap.restrict and the twist part of to_explicit)
against the dense (-1)^{n|b|} e_b . phi_ji; pure tensors, the outer tensor
of matrices and the twist and idempotent of the outer tensor of modules
against x (x) y = (x (x) 1)(1 (x) y) through AlgebraElement.__mul__; the
restriction of a bimodule to either factor and right multiplication on it
against products with 1 (x) beta and alpha (x) 1 through
AlgebraElement.__mul__; the stored columns of maps and twists against their
normal form; the factor swap and d^2 = 0 on N (x)_A M over dg algebras,
where the Koszul signs show; the twist check D^2 = 0 over A against d^2 = 0
on the explicit realization.
"""

from collections import Counter
from fractions import Fraction

import pytest

from dgtrace.algebras import (AlgebraElement, DgAlgebra, opposite, pure_tensor,
                              sparse, swap_iso, tensor_algebras,
                              validate_algebra)
from dgtrace import duality
from dgtrace.complexes import (ChainMap, SplitComplex, chain_supertrace,
                               key_columns)
from dgtrace.duality import (DualBimodule, _opposite_diagonal_explicit,
                             diagonal_explicit, dual_right_module_data,
                             dualhom_check, serre_module_data)
from dgtrace.errors import (DifferentialSquareViolation,
                            NotDegreeZeroConcentrated, WrongDegree)
from dgtrace.hochschild import diagonal, generalized_supertrace, hh0_space
from dgtrace.linalg import RationalMatrix, sparse_kernel
from dgtrace.modules import (HomOverAlgebra, ModuleMap, PerfectModule,
                             SemiFreeModule, TensorOverAlgebra, _dense, _grid_columns,
                             direct_sum_modules, outer_tensor_columns,
                             outer_tensor_modules, projective_module,
                             restrict_to_factor, restrict_to_ground,
                             right_multiplication_map, tensor_over_algebra)
from dgtrace.pairing import compose_kernels, rr_left_side
from dgtrace.prng import SplitMix64, stream_for
from dgtrace.sampling import (EndoSampler, _random_coordinates, closed_map_basis,
                              closed_map_kernel, random_closed_pair, random_coeff,
                              random_module_with_endos, random_perfect,
                              random_semifree)
from oracles import compressed

CATALOG = ("k", "kxk", "M2", "A2", "A3", "Kronecker", "A2xA2")

F = Fraction
ONE = F(1)


def random_element_of_degree(a, degree, rng):
    """A random element of the given degree, drawn as the samplers draw
    their coordinates."""
    coords = [0] * a.dim
    for i, c in _random_coordinates(a, degree, rng):
        coords[i] = c
    return a.element(coords)


def outer_tensor_entries(prod, x, y):
    """The matrix x (x) y over prod = tensor_algebras(R, S) of nonempty
    square matrices x over R and y over S, on the generators (i, j) numbered
    i len(y) + j: entry (i2, j2), (i, j) is x[i2][i] (x) y[j2][j]; grids in
    and out."""
    ns = y[0][0].algebra.dim
    x, y = (_grid_columns(z[0][0].algebra, z, len(z), len(z), "square matrices only")
            for z in (x, y))
    return _dense(prod, outer_tensor_columns(x, y, ns), len(x) * len(y))


def dense_compose(psi, phi):
    """psi . phi entry by entry through AlgebraElement.__mul__."""
    a = phi.source.algebra
    rows = []
    for l in range(psi.target.rank):
        row = []
        for i in range(phi.source.rank):
            acc = a.zero()
            for j in range(phi.target.rank):
                e1, e2 = phi.entries[j][i], psi.entries[l][j]
                sgn = -1 if (psi.degree * (e1.degree() or 0)) % 2 else 1
                acc = acc + (e1 * e2).scale(sgn)
            row.append(acc)
        rows.append(row)
    return ModuleMap(phi.source, psi.target, psi.degree + phi.degree, rows)


def map_level_combination(maps, rng):
    """The reference draw: one random_coeff per basis map, in order, summed
    as ModuleMaps; a random basis map when every coefficient is 0."""
    if not maps:
        return None
    total = None
    for mp in maps:
        c = random_coeff(rng)
        if c:
            scaled = mp.scale(c)
            total = scaled if total is None else total + scaled
    if total is None:
        total = maps[rng.below(len(maps))]
    return total


def reference_draw(p, rng):
    f = map_level_combination(closed_map_basis(p.module, p.module, 0), rng)
    if p.idempotent is not None:
        f = dense_compose(p.idempotent, dense_compose(f, p.idempotent))
    return f


@pytest.mark.parametrize("name", ["k", "kxk", "M2", "A2", "A3", "Kronecker",
                                  "A2xA2"])
def test_draw_matches_map_level_combination(cat, name):
    ent = cat[name]
    drawn = 0
    for side in (ent.algebra, opposite(ent.algebra)):
        for index in range(4):
            rng = stream_for(11, 100 * index + len(name))
            p = random_perfect(side, rng, ent.idempotents,
                               max_gens=3 if side.dim > 6 else 4)
            sampler = EndoSampler(p)
            if not sampler.vectors:
                continue
            for _ in range(3):
                ref_rng = SplitMix64(rng.state)
                f = sampler.draw(rng)
                g = reference_draw(p, ref_rng)
                assert f == g
                assert rng.state == ref_rng.state
                e = p.idempotent
                if e is not None:
                    # the drawn_from mark is sound: e f e = f on the nose
                    assert e.compose(f).compose(e) == f
                # a draw is already e f e, so compressing its restriction
                # changes nothing (the Euler suite relies on it)
                chain = f.restrict()
                assert restrict_to_ground(p).compress(chain) == chain
                drawn += 1
    assert drawn > 0


def test_random_closed_pair_matches_map_level_combination(cat):
    for name in ("k", "kxk", "M2", "A2", "A3", "Kronecker"):
        a = cat[name].algebra
        for index in range(5):
            rng = stream_for(23, index)
            ref_rng = SplitMix64(rng.state)
            m, n, g, h = random_closed_pair(a, rng, max_gens=3)
            m2 = random_semifree(a, ref_rng, max_gens=3, shift_range=(-1, 1))
            n2 = random_semifree(a, ref_rng, max_gens=3, shift_range=(-1, 1))
            g2 = map_level_combination(
                closed_map_basis(m2.module, n2.module, 0), ref_rng)
            h2 = map_level_combination(
                closed_map_basis(n2.module, m2.module, 0), ref_rng)
            assert (m, n) == (m2, n2)
            assert g == (g2 if g2 is not None else ModuleMap.zero(m.module, n.module))
            assert h == (h2 if h2 is not None else ModuleMap.zero(n.module, m.module))
            assert rng.state == ref_rng.state


def dense_differential(phi):
    """d(phi) entry by entry through AlgebraElement.__mul__."""
    a = phi.source.algebra
    n = phi.degree
    src, tgt = phi.source, phi.target
    rows = []
    for l in range(tgt.rank):
        row = []
        for i in range(src.rank):
            acc = phi.entries[l][i].d()
            for j in range(tgt.rank):
                e = phi.entries[j][i]
                sgn = -1 if (e.degree() or 0) % 2 else 1
                acc = acc + (e * tgt.twist[l][j]).scale(sgn)
            for j in range(src.rank):
                dlt = src.twist[j][i]
                sgn = -1 if (n * (dlt.degree() or 0) + n) % 2 else 1
                acc = acc - (dlt * phi.entries[l][j]).scale(sgn)
            row.append(acc)
        rows.append(row)
    return ModuleMap(src, tgt, n + 1, rows)


def exterior_algebra():
    """1, x with |x| = -1 (test_algebras.test_graded_algebra_accepted)."""
    mult = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),)}
    return validate_algebra(["1", "x"], [0, -1], mult, [ONE, F(0)])


def square_zero_dg_algebra():
    """1, x, y with |x| = -1, d(x) = y (test_algebras.
    test_dg_algebra_with_differential)."""
    mult = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),),
            (0, 2): ((2, ONE),), (2, 0): ((2, ONE),)}
    return validate_algebra(["1", "x", "y"], [0, -1, 0], mult,
                            [ONE, F(0), F(0)], {1: ((2, ONE),)})


def exterior_algebra_xy():
    """1, x, y, xy with |x| = |y| = -1 and yx = -xy."""
    mult = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),),
            (0, 2): ((2, ONE),), (2, 0): ((2, ONE),), (0, 3): ((3, ONE),),
            (3, 0): ((3, ONE),), (1, 2): ((3, ONE),), (2, 1): ((3, -ONE),)}
    return validate_algebra(["1", "x", "y", "xy"], [0, -1, -1, -2], mult,
                            [ONE, F(0), F(0), F(0)])


@pytest.mark.parametrize("make", [exterior_algebra, exterior_algebra_xy])
def test_dualhom_check_refuses_graded_algebras(make, monkeypatch):
    """The comparison's sign and the table of M^* over A^op carry no Koszul
    sign of a graded coefficient: over the exterior algebra on x the map
    was not closed on some seeded pairs (the ninth below), and on x and y
    the table failed the module axiom.  So a graded algebra is refused
    before any realization is built."""
    def refuse(*args):
        raise AssertionError("dualhom_check built a realization")
    monkeypatch.setattr(duality, "HomOverAlgebra", refuse)
    monkeypatch.setattr(duality, "dual_right_module_data", refuse)
    a = make()
    rng = SplitMix64(5)
    for _ in range(10):
        n = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
        m = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
        with pytest.raises(NotDegreeZeroConcentrated):
            dualhom_check(n, m)


@pytest.mark.parametrize("degree", [-1, 0, 1])
def test_closed_map_kernel_rejects_graded_algebras(degree):
    """The entry-level closedness system has neither the d_A term nor the
    Koszul signs of graded entries: over the square-zero dg algebra it
    would give maps that are not closed (1 of the 5 degree-0 basis maps of
    this module, 2 of the 4 in degree -1), so it refuses the algebra."""
    m = SemiFreeModule(square_zero_dg_algebra(), [0, 1])
    with pytest.raises(NotDegreeZeroConcentrated):
        closed_map_kernel(m, m, degree)
    with pytest.raises(NotDegreeZeroConcentrated):
        closed_map_basis(m, m, degree)


def test_zero_differential_short_cut_keeps_d_of_the_algebra(cat):
    """The differential of a map between twist-free modules skips the entry
    loop only when d_A = 0: over the square-zero dg algebra the map g0 -> x
    g0 (|x| = -1) has d(phi) = y and is not closed, and over a d = 0
    algebra it is the zero map of one degree up, as the dense reference
    says."""
    a = square_zero_dg_algebra()
    src, tgt = SemiFreeModule(a, [1]), SemiFreeModule(a, [0])
    phi = ModuleMap(src, tgt, 0, [[a.by_label("x")]])
    assert not phi.is_closed()
    assert phi.differential() == ModuleMap(src, tgt, 1, [[a.by_label("y")]])
    assert phi.differential() == dense_differential(phi)
    rng = SplitMix64(41)
    for name in ("kxk", "A2", "A2xA2"):
        b = cat[name].algebra
        src, tgt = SemiFreeModule(b, [0, 1]), SemiFreeModule(b, [1, 0, 0])
        for n in (0, 1):
            phi = random_map(src, tgt, n, rng)
            assert not phi.is_zero()
            assert phi.differential() == ModuleMap.zero(src, tgt, n + 1)
            assert phi.differential() == dense_differential(phi)


def random_entry(a, degree, rng):
    """Homogeneous of the given degree: the grid constructors refuse a mixed
    entry, and every Koszul sign reads an entry's degree from the shifts."""
    return random_element_of_degree(a, degree, rng)


def unchecked_module(a, shifts, twist):
    """The module on a grid twist that need not square to zero, built from
    its columns without the grid constructor's check."""
    n = len(shifts)
    return SemiFreeModule.from_columns(a, shifts, _grid_columns(
        a, twist, n, n, "twist must be a square generator matrix"))


def random_module(a, rng):
    shifts = [rng.int_in(-2, 1) for _ in range(1 + rng.below(3))]
    n = len(shifts)
    twist = [[random_entry(a, 1 + shifts[j] - shifts[i], rng) if j > i
              else a.zero() for i in range(n)] for j in range(n)]
    return unchecked_module(a, shifts, twist)


def random_map(src, tgt, degree, rng):
    a = src.algebra
    rows = [[random_entry(a, degree + tgt.shifts[j] - src.shifts[i], rng)
             for i in range(src.rank)] for j in range(tgt.rank)]
    return ModuleMap(src, tgt, degree, rows)


@pytest.mark.parametrize("make", [exterior_algebra, square_zero_dg_algebra])
def test_sparse_compose_and_differential_match_dense_products(make):
    a = make()
    rng = SplitMix64(7)
    odd_signs = 0
    for _ in range(60):
        m1, m2, m3 = (random_module(a, rng) for _ in range(3))
        d1, d2 = rng.int_in(-1, 1), rng.int_in(-1, 1)
        phi = random_map(m1, m2, d1, rng)
        psi = random_map(m2, m3, d2, rng)
        assert psi.compose(phi) == dense_compose(psi, phi)
        assert phi.differential() == dense_differential(phi)
        assert psi.differential() == dense_differential(psi)
        odd_signs += d2 % 2 and any(e.degree() == -1 for r in phi.entries for e in r)
    assert odd_signs > 0


def random_endo(c, rng):
    """A degree-0 endomorphism of a complex with random blocks, closed or
    not."""
    blocks = {p: RationalMatrix.from_rows(
        [[random_coeff(rng) for _ in range(c.dim(p))] for _ in range(c.dim(p))])
        for p in c.degrees() if c.dim(p)}
    return ChainMap(c, c, 0, blocks)


def test_split_supertrace_matches_compressed_supertrace(cat):
    checked = 0
    for name in ("kxk", "M2", "A2", "A3", "Kronecker"):
        ent = cat[name]
        a = ent.algebra
        for index in range(6):
            rng = stream_for(31, 10 * index + len(name))
            m, ms = random_module_with_endos(a, rng, ent.idempotents, max_gens=3)
            n, ns = random_module_with_endos(opposite(a), rng, ent.idempotents,
                                             max_gens=3)
            sc = tensor_over_algebra(n, m)
            if sc.projector is None or not ms.vectors or not ns.vectors:
                continue
            induced = sc.map_tensor(ns.draw(rng).restrict(), ms.draw(rng))
            for f in (induced, random_endo(sc.carrier, rng)):
                assert sc.supertrace(f) == chain_supertrace(sc.compress(f))
                checked += 1
            with pytest.raises(WrongDegree):
                sc.supertrace(ChainMap.zero(sc.carrier, sc.carrier, 1))
    assert checked >= 10


def test_compressed_supertrace_matches_dense_compression(cat):
    """The transfer's supertrace of f . e lies in the class of the trace of
    the dense e f e: tr(e f e) = tr(f e e) modulo commutators.  The
    representatives can differ, so classes are compared."""
    checked = 0
    differ = 0
    for name in ("kxk", "M2", "A2", "A3", "Kronecker", "A2xA2"):
        ent = cat[name]
        a = ent.algebra
        space = hh0_space(a)
        for index in range(4):
            rng = stream_for(37, 10 * index + len(name))
            p = random_perfect(a, rng, ent.idempotents, max_gens=3)
            if p.idempotent is None:
                continue
            f = random_map(p.module, p.module, 0, rng)
            efe = dense_compose(p.idempotent, dense_compose(f, p.idempotent))
            fe = generalized_supertrace(p, f.compose(p.idempotent))
            dense = generalized_supertrace(p, efe)
            assert space.class_of(fe) == space.class_of(dense)
            checked += 1
            differ += fe != dense
    assert checked > 0 and differ > 0


def test_diagonal_of_composite_matches_dense_composite(cat):
    """The diagonal of the sparse f . g is that of the dense f . g entry by
    entry for any degree-0 g (the sampled idempotents are often diagonal,
    which would hide a transposed read), and so is the supertrace of
    f . e."""
    with_e = 0
    for name in ("kxk", "M2", "A2", "A3", "Kronecker", "A2xA2"):
        ent = cat[name]
        for index in range(4):
            rng = stream_for(41, 10 * index + len(name))
            p = random_perfect(ent.algebra, rng, ent.idempotents, max_gens=3)
            f = random_map(p.module, p.module, 0, rng)
            g = random_map(p.module, p.module, 0, rng)
            assert diagonal(f.compose(g)) == diagonal(dense_compose(f, g))
            if p.idempotent is not None:
                assert (generalized_supertrace(p, f.compose(p.idempotent))
                        == generalized_supertrace(p, dense_compose(f, p.idempotent)))
                with_e += 1
    assert with_e > 0


def homogeneous_map(m, rng):
    """A random degree-0 endomorphism with homogeneous entries, closed or
    not."""
    s = m.shifts
    return ModuleMap(m, m, 0, [[random_element_of_degree(m.algebra, s[j] - s[i], rng)
                                for i in range(m.rank)] for j in range(m.rank)])


def tensor_oracle(n, m, g, f):
    """The supertrace of the compression of g (x) f on the realized
    N (x)_A M, through the tensor complex and its projector."""
    sc = tensor_over_algebra(n, m)
    gf = sc.map_tensor(g.restrict() if g is not None else None, f)
    return chain_supertrace(sc.compress(gf))


def trace_element(m, f):
    """X_{M,f}, the element of A at which the left side is evaluated; a
    missing f is the summand's identity."""
    return generalized_supertrace(
        m, m.identity_map() if f is None else m.endomorphism(f))


def with_idempotent(a, p, idempotents, shift):
    """p (+) A e, e the first listed idempotent or else the unit."""
    e = a.basis_element(idempotents[0]) if idempotents else a.one()
    return direct_sum_modules(p, projective_module(a, e, shift))


@pytest.mark.parametrize("name", CATALOG)
def test_keyed_left_side_matches_tensor_supertrace(cat, name):
    """rr_left_side read off the keyed diagonals against the supertrace of
    the compressed g (x) f on the tensor complex, with and without an
    idempotent on each side and with each map given or the identity."""
    ent = cat[name]
    a = ent.algebra
    aop = opposite(a)
    nonzero_pairs = 0
    for index, (e_n, e_m) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        rng = stream_for(43, 10 * index + len(name))
        n = random_semifree(aop, rng, max_gens=3)
        m = random_semifree(a, rng, max_gens=3)
        if e_n:
            n = with_idempotent(aop, n, ent.idempotents, rng.int_in(-1, 1))
        if e_m:
            m = with_idempotent(a, m, ent.idempotents, rng.int_in(-1, 1))
        assert (n.idempotent is not None, m.idempotent is not None) == (e_n, e_m)
        g_draw, f_draw = EndoSampler(n).draw(rng), EndoSampler(m).draw(rng)
        for g in (None, g_draw):
            for f in (None, f_draw):
                lhs = rr_left_side(n, g, trace_element(m, f))
                assert lhs == tensor_oracle(n, m, g, f)
                nonzero_pairs += lhs != 0
    assert nonzero_pairs > 0


def test_keyed_left_side_builds_no_tensor_complex(cat, monkeypatch):
    ent = cat["A2"]
    a, aop = ent.algebra, opposite(ent.algebra)
    rng = stream_for(47, 0)
    n, m = (with_idempotent(side, random_semifree(side, rng, max_gens=3),
                            ent.idempotents, 0) for side in (aop, a))
    g, f = EndoSampler(n).draw(rng), EndoSampler(m).draw(rng)
    expected = tensor_oracle(n, m, g, f)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built by the left side")
    for cls in (RationalMatrix, SplitComplex, TensorOverAlgebra):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert rr_left_side(n, g, trace_element(m, f)) == expected != 0


def test_keyed_left_side_matches_tensor_supertrace_over_dg_algebras():
    """The same oracle over the exterior and square-zero dg algebras, with
    random homogeneous degree-0 maps that need not be closed."""
    checked = nonzero = 0
    for make in (exterior_algebra, square_zero_dg_algebra):
        a = make()
        rng = SplitMix64(53 + a.dim)
        for _ in range(12):
            n = PerfectModule(valid_module(opposite(a), rng))
            m = PerfectModule(valid_module(a, rng))
            g, f = homogeneous_map(n.module, rng), homogeneous_map(m.module, rng)
            lhs = rr_left_side(n, g, trace_element(m, f))
            assert lhs == tensor_oracle(n, m, g, f)
            checked += 1
            nonzero += lhs != 0
    assert checked == 24 and nonzero > 0


# -- action tables and the restriction kernel -------------------------------

def unit_vector(a, t):
    return a.basis_element(t).coords


def product(a, *factors):
    """Dense coordinates of e_f1 e_f2 ... through DgAlgebra.multiply."""
    out = unit_vector(a, factors[0])
    for f in factors[1:]:
        out = a.multiply(out, unit_vector(a, f))
    return out


def nonzero(pairs):
    return {k: c for k, c in pairs if c}


def assert_action(module, dim, reference):
    """module.act(e_t, key) == reference(t, key) for every basis element t
    of the acting algebra (dimension dim) and every key."""
    nonempty = 0
    for key in module.pos:
        for t in range(dim):
            got = module.act(((t, 1),), key)
            assert len({k for k, _ in got}) == len(got)
            assert dict(got) == reference(t, key), (t, key)
            nonempty += bool(got)
    assert nonempty > 0


def homogeneous_module(a, rng):
    shifts = [rng.int_in(-2, 1) for _ in range(1 + rng.below(3))]
    n = len(shifts)
    twist = [[random_element_of_degree(a, 1 + shifts[j] - shifts[i], rng)
              if j > i else a.zero() for i in range(n)] for j in range(n)]
    return unchecked_module(a, shifts, twist)


def catalog_modules(cat, count=3):
    for name in CATALOG:
        ent = cat[name]
        for index in range(count):
            rng = stream_for(41, 10 * index + len(name))
            yield ent.algebra, random_perfect(ent.algebra, rng, ent.idempotents,
                                              max_gens=3)


def dg_modules(count=4):
    for make in (exterior_algebra, square_zero_dg_algebra):
        a = make()
        rng = SplitMix64(len(a.labels))
        for _ in range(count):
            yield a, homogeneous_module(a, rng)


def test_semifree_and_dual_right_tables_match_dense_products(cat):
    for a, m in list(catalog_modules(cat)) + [(a, PerfectModule(m))
                                                for a, m in dg_modules()]:
        ex = m.module.to_explicit()
        # e_t . (i, b) = (i, e_t e_b)
        assert_action(ex, a.dim, lambda t, key: {
            (key[0], b2): c for b2, c in nonzero(enumerate(product(a, t, key[1]))).items()})
        # e_t . mu_key = sum_k2 [key](e_t . k2) mu_k2
        dual = dual_right_module_data(m.module)
        assert_action(dual, a.dim, lambda t, key: nonzero(
            (k2, product(a, t, k2[1])[key[1]]) for k2 in ex.pos if k2[0] == key[0]))


def test_keyed_dual_is_the_signed_transpose(cat):
    """M^* of dual_right_module_data, a keyed transpose, assembles to the
    blocks -(-1)^p (d^{-p-1})^T of M's realization, block by block, over
    the catalog and over the exterior and square-zero dg algebras, with
    nonzero blocks in odd and in even degrees on both."""
    families = ([p.module for _, p in catalog_modules(cat)],
                [m for _, m in dg_modules()])
    for family in families:
        parities = set()
        for m in family:
            d = m.to_explicit().carrier.d
            dual = dual_right_module_data(m).carrier
            for p in dual.degrees():
                block = dual.d(p)
                assert block == d(-p - 1).transpose().scale(1 if p % 2 else -1), p
                if not block.is_zero():
                    parities.add(p % 2)
        assert parities == {0, 1}


def rank_one(reference):
    """reference(t, x) -> {y: c} read on the keys (0, x) of a rank-1
    module."""
    return lambda t, key: {(0, y): c for y, c in reference(t, key[1]).items()}


@pytest.mark.parametrize("name", CATALOG)
def test_bimodule_tables_match_dense_products(cat, name):
    a = cat[name].algebra
    n = a.dim
    dual = DualBimodule(a)
    env = dual.env
    # (p (x) q) . x = e_p x e_q
    assert_action(diagonal_explicit(a), env.dim, rank_one(lambda u, x: nonzero(
        enumerate(product(a, u // n, x, u % n)))))
    # read through the swap: (p (x) q) . x = e_q x e_p
    env_op = tensor_algebras(opposite(a), a)
    assert_action(_opposite_diagonal_explicit(a, env_op), env.dim, rank_one(
        lambda u, x: nonzero(enumerate(product(a, u % n, x, u // n)))))
    # (p (x) q) . phi_x = sum_y phi_x(e_q e_y e_p) phi_y
    assert_action(dual.env_data, env.dim, rank_one(lambda u, x: nonzero(
        (y, product(a, u % n, y, u // n)[x]) for y in range(n))))
    # phi . e_i = sum_y phi_x(e_i e_y) phi_y, over A^op
    assert_action(dual.right_module_data(), n, rank_one(lambda i, x: nonzero(
        (y, product(a, i, y)[x]) for y in range(n))))
    # e_i . phi_x = sum_y phi_x(e_y e_i) phi_y, also on S(M)'s keys (j, x)
    def left(i, x):
        return nonzero((y, product(a, y, i)[x]) for y in range(n))

    assert_action(dual.left_module_data(), n, rank_one(left))
    for index in range(2):
        m = random_perfect(a, stream_for(43, index), cat[name].idempotents,
                           max_gens=2)
        data = serre_module_data(a, m, dual)
        assert_action(data, n, lambda i, key: {
            (key[0], y): c for y, c in left(i, key[1]).items()})


def dense_restriction(src, tgt, degree, images):
    """Blocks of e_b g_i -> (-1)^{n|b|} sum_j (e_b * images[i][j]) g_j,
    products through AlgebraElement.__mul__."""
    a = src.algebra
    s_ex, t_ex = src.to_explicit(), tgt.to_explicit()
    blocks = {p: [[F(0)] * len(keys) for _ in t_ex.basis.get(p + degree, ())]
              for p, keys in s_ex.basis.items()}
    for (i, b), (p, c) in s_ex.pos.items():
        sgn = -1 if (degree * a.degrees[b]) % 2 else 1
        for j, entry in enumerate(images[i]):
            for b2, coeff in enumerate((a.basis_element(b) * entry).coords):
                if coeff:
                    q, r = t_ex.pos[(j, b2)]
                    assert q == p + degree
                    blocks[p][r][c] += sgn * coeff
    return blocks


@pytest.mark.parametrize("make", [exterior_algebra, square_zero_dg_algebra])
def test_restrict_matches_dense_restriction(make):
    a = make()
    rng = SplitMix64(53)
    odd_signs = 0
    for _ in range(30):
        m1, m2 = valid_module(a, rng), valid_module(a, rng)
        for degree in (-1, 0, 1):
            rows = [[random_element_of_degree(a, degree + m2.shifts[j] - m1.shifts[i], rng)
                     for i in range(m1.rank)] for j in range(m2.rank)]
            f = ModuleMap(m1, m2, degree, rows)
            images = [[rows[j][i] for j in range(m2.rank)] for i in range(m1.rank)]
            want = dense_restriction(m1, m2, degree, images)
            got = f.restrict()
            for p, block in want.items():
                assert [list(r) for r in got.block(p).entries] == block
            odd_signs += degree % 2 and any(
                a.degrees[b] % 2 and not (a.basis_element(b) * e).is_zero()
                for b in range(a.dim) for row in rows for e in row)
    assert odd_signs > 0


@pytest.mark.parametrize("make", [exterior_algebra, square_zero_dg_algebra])
def test_realization_differential_is_d_a_plus_restricted_twist(make):
    a = make()
    rng = SplitMix64(59)
    for _ in range(30):
        m = valid_module(a, rng)
        ex = m.to_explicit()
        images = [[m.twist[j][i] for j in range(m.rank)] for i in range(m.rank)]
        want = dense_restriction(m, m, 1, images)
        for (i, b), (p, c) in ex.pos.items():
            for b2, coeff in enumerate(a.basis_element(b).d().coords):
                if coeff:
                    want[p][ex.pos[(i, b2)][1]][c] += coeff
        for p, block in want.items():
            assert [list(r) for r in ex.carrier.d(p).entries] == block


def test_swap_iso_is_multiplicative_over_dg_algebras():
    """x (x) y -> (-1)^{|x||y|} y (x) x is an algebra map only with its
    Koszul sign once both factors have odd elements."""
    algebras = (exterior_algebra(), square_zero_dg_algebra())
    for a in algebras:
        for b in algebras:
            swap_iso(a, b, tensor_algebras(b, a)).check()


def valid_module(a, rng):
    """A homogeneous twisted module whose twist squares to zero: its
    realization's carrier checks d^2 = 0 when it is first read."""
    while True:
        m = homogeneous_module(a, rng)
        try:
            m.to_explicit().carrier
            return m
        except DifferentialSquareViolation:
            pass


def random_twisted_module(a, rng):
    """A homogeneous strictly triangular twist, unchecked, on shifts that
    mostly step down by one, so that degree-0 algebras get entries too."""
    shifts = [rng.int_in(-1, 1)]
    for _ in range(1 + rng.below(3)):
        shifts.append(shifts[-1] - (1 if rng.below(3) else 2 * rng.below(2)))
    n = len(shifts)
    twist = [[random_element_of_degree(a, 1 + shifts[j] - shifts[i], rng)
              if j > i else a.zero() for i in range(n)] for j in range(n)]
    return unchecked_module(a, shifts, twist)


def accepted(check):
    try:
        check()
        return True
    except DifferentialSquareViolation:
        return False


def test_twist_check_over_a_agrees_with_the_realization(cat):
    """SemiFreeModule checks D^2 = 0 over A; it refuses a twist exactly
    when the differential of the explicit realization does not square to
    zero, over the exterior and square-zero dg algebras, their opposites
    and the catalog, with both verdicts on each algebra."""
    dg = [exterior_algebra(), square_zero_dg_algebra()]
    algebras = dg + [opposite(a) for a in dg] + [cat[name].algebra for name in CATALOG]
    for index, a in enumerate(algebras):
        rng = SplitMix64(97 + index)
        verdicts = set()
        for _ in range(200):
            m = random_twisted_module(a, rng)
            got = accepted(lambda: SemiFreeModule.from_columns(
                a, m.shifts, m.twist_columns).validate())
            assert got == accepted(lambda: m.to_explicit().carrier)
            verdicts.add(got)
        assert verdicts == {True, False}, a.labels


@pytest.mark.parametrize("make", [exterior_algebra, square_zero_dg_algebra])
def test_tensor_over_dg_algebra_squares_to_zero(make):
    """N (x)_A M of valid twisted modules is a complex: the balanced right
    action u . x carries the sign (-1)^{|x||u|}."""
    a = make()
    rng = SplitMix64(61)
    for _ in range(300):
        n, m = valid_module(opposite(a), rng), valid_module(a, rng)
        TensorOverAlgebra(n.to_explicit(), m).carrier.check_d_squared()


@pytest.mark.parametrize("make", [exterior_algebra, square_zero_dg_algebra])
def test_tensor_differential_is_a_sum_of_map_tensors(make):
    """The differential of N (x)_A M is d_N (x) 1 + 1 (x) delta, delta the
    twist of M as a degree-1 map, block by block: map_tensor on odd-degree
    maps, with its Koszul sign (-1)^{deg f |u|}."""
    a = make()
    rng = SplitMix64(67)
    blocks = 0
    for _ in range(40):
        n, m = valid_module(opposite(a), rng), valid_module(a, rng)
        t = TensorOverAlgebra(n.to_explicit(), m)
        left = t.left.carrier
        d_left = t.map_tensor(ChainMap(left, left, 1, left.diff), None)
        delta = t.map_tensor(None, ModuleMap.from_columns(m, m, 1, m.twist_columns))
        for p in t.carrier.degrees():
            assert t.carrier.d(p) == d_left.block(p) + delta.block(p), p
            blocks += 1
    assert blocks > 40


def test_precompose_is_compose_key_by_key():
    """HomOverAlgebra.precompose(e) sends each Hom key, the map phi: g_j ->
    e_b h_k of degree n, to phi . e as ModuleMap.compose gives it, the
    Koszul sign (-1)^{n |e_ji|} included: over the exterior algebra, with
    generators of both parities on each side, odd entries of e meet keys
    of odd degree."""
    a = exterior_algebra()
    m, n = SemiFreeModule(a, [0, 1]), SemiFreeModule(a, [0, -1])
    hom = HomOverAlgebra(m, n.to_explicit())
    rng = SplitMix64(29)
    keys = odd_signs = 0
    for _ in range(10):
        e = homogeneous_map(m, rng)
        images = key_columns(hom.precompose(e).block, 0, hom.basis, hom.basis)
        for p, basis in hom.basis.items():
            for j, (k, b) in basis:
                phi = ModuleMap.from_columns(
                    m, n, p, [((k, ((b, 1),)),) if i == j else ()
                              for i in range(m.rank)])
                want = {(i, (l, b2)): c for i, col in enumerate(phi.compose(e).columns)
                        for l, vec in col for b2, c in vec}
                assert dict(images[(j, (k, b))]) == want
                keys += 1
                odd_signs += p % 2 and any(
                    l == j and a.degrees[vec[0][0]] % 2
                    for col in e.columns for l, vec in col)
    assert keys == 80 and odd_signs > 0


# -- pure tensors and the outer tensor --------------------------------------

OUTER_PAIRS = (("kxk", "M2"), ("A2", "Kronecker"), ("M2", "A2"), ("A3", "k"))


def labelled_tensor(prod, r, s, x, y):
    """sum x_i y_j (e_i (x) e_j), each e_i (x) e_j looked up in prod by its
    label."""
    out = prod.zero()
    for i, cx in enumerate(x):
        for j, cy in enumerate(y):
            if cx and cy:
                term = prod.by_label(f"{r.labels[i]}(x){s.labels[j]}")
                out = out + term.scale(cx * cy)
    return out


def tensor_by_products(prod, r, s, x, y):
    """x (x) y = (x (x) 1)(1 (x) y) through AlgebraElement.__mul__ (degree
    0, so no Koszul sign)."""
    return (labelled_tensor(prod, r, s, x, s.unit)
            * labelled_tensor(prod, r, s, r.unit, y))


def random_square(a, n, rng):
    return [[a.element([random_coeff(rng) for _ in range(a.dim)])
             if rng.below(3) else a.zero() for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("rname,sname", OUTER_PAIRS)
def test_pure_tensor_and_outer_entries_match_products(cat, rname, sname):
    r, s = cat[rname].algebra, cat[sname].algebra
    prod = tensor_algebras(r, s)
    rng = SplitMix64(61)
    for _ in range(8):
        x = [random_coeff(rng) for _ in range(r.dim)]
        y = [random_coeff(rng) for _ in range(s.dim)]
        assert pure_tensor(x, y) == tensor_by_products(prod, r, s, x, y).coords
    for _ in range(4):
        n1, n2 = 1 + rng.below(3), 1 + rng.below(3)
        x, y = random_square(r, n1, rng), random_square(s, n2, rng)
        index = {(i, j): i * n2 + j for i in range(n1) for j in range(n2)}
        got = outer_tensor_entries(prod, x, y)
        for (i2, j2), row in index.items():
            for (i, j), col in index.items():
                want = tensor_by_products(prod, r, s, x[i2][i].coords,
                                          y[j2][j].coords)
                assert got[row][col].coords == want.coords


def test_outer_tensor_twist_and_idempotent_match_products(cat):
    """twist delta1 (x) 1 + (-1)^{s_i} 1 (x) delta2 and idempotent
    e1 (x) e2, entry by entry."""
    with_idempotent = odd_signs = 0
    for rname, sname in OUTER_PAIRS:
        r, s = cat[rname].algebra, cat[sname].algebra
        for index_ in range(4):
            rng = stream_for(67, 10 * index_ + len(rname + sname))
            p1 = random_perfect(r, rng, cat[rname].idempotents, max_gens=3,
                                shift_range=(-1, 1))
            p2 = random_perfect(s, rng, cat[sname].idempotents, max_gens=3,
                                shift_range=(-1, 1))
            big = outer_tensor_modules(p1, p2)
            prod = tensor_algebras(r, s)
            m1, m2 = p1.module, p2.module
            index = {(i, j): i * m2.rank + j for i in range(m1.rank)
                     for j in range(m2.rank)}
            e1, e2 = p1.identity_map(), p2.identity_map()
            for (i2, j2), row in index.items():
                for (i, j), col in index.items():
                    want = prod.zero()
                    if j2 == j:
                        want = want + tensor_by_products(
                            prod, r, s, m1.twist[i2][i].coords, s.unit)
                    if i2 == i:
                        sgn = -1 if m1.shifts[i] % 2 else 1
                        want = want + tensor_by_products(
                            prod, r, s, r.unit, m2.twist[j2][j].coords).scale(sgn)
                        odd_signs += sgn < 0 and not m2.twist[j2][j].is_zero()
                    assert big.module.twist[row][col].coords == want.coords
                    if big.idempotent is not None:
                        e = tensor_by_products(prod, r, s, e1.entries[i2][i].coords,
                                               e2.entries[j2][j].coords)
                        assert big.idempotent.entries[row][col].coords == e.coords
            with_idempotent += big.idempotent is not None
    assert with_idempotent > 0 and odd_signs > 0


# -- restriction to a tensor factor and right multiplication ----------------

def factor_kernels(cat):
    """(kernel, f1, f2): the catalog resolutions over A (x) A^op, and random
    kernels over A (x) B^op with dim A != dim B, so a swap of the two
    factors shows; the catalog idempotents e_p (x) e_q cut out summands."""
    for name in ("k", "kxk", "M2", "A2", "A3", "Kronecker"):
        a = cat[name].algebra
        yield cat[name].resolution.module, a, opposite(a)
    for aname, bname in (("kxk", "M2"), ("A2", "A3"), ("M2", "Kronecker")):
        a, b = cat[aname].algebra, opposite(cat[bname].algebra)
        prod = tensor_algebras(a, b)
        idems = [p * b.dim + q for p in cat[aname].idempotents
                 for q in cat[bname].idempotents]
        for index in range(3):
            rng = stream_for(83, 10 * index + len(aname + bname))
            yield random_perfect(prod, rng, idems, max_gens=2,
                                 shift_range=(-1, 1)), a, b


def restricted_reference(grid, f1, f2, side):
    """The restriction of a matrix over f1 (x) f2 as coordinate lists: the
    entry from generator (i, q) to (j, u) holds the coordinates of
    alpha (x) beta_u (side first) or alpha_u (x) beta (side second) in
    (1 (x) beta_q) * grid[j][i] or (alpha_q (x) 1) * grid[j][i]."""
    prod = tensor_algebras(f1, f2)
    n1, n2 = f1.dim, f2.dim
    small, other = (f1, n2) if side == "first" else (f2, n1)
    gens = [(i, q) for i in range(len(grid)) for q in range(other)]
    index = {g: t for t, g in enumerate(gens)}
    rows = [[[F(0)] * small.dim for _ in gens] for _ in gens]
    for (i, q), col in index.items():
        if side == "first":
            factor = labelled_tensor(prod, f1, f2, f1.unit, unit_vector(f2, q))
        else:
            factor = labelled_tensor(prod, f1, f2, unit_vector(f1, q), f2.unit)
        for j, row in enumerate(grid):
            product = factor * prod.element(row[i].coords)
            for flat, c in enumerate(product.coords):
                pa, qb = divmod(flat, n2)
                if side == "first":
                    rows[index[(j, qb)]][col][pa] += c
                else:
                    rows[index[(j, pa)]][col][qb] += c
    return rows


def coordinate_lists(grid):
    return [[list(e.coords) for e in row] for row in grid]


@pytest.mark.parametrize("side", ["first", "second"])
def test_restrict_to_factor_matches_products(cat, side):
    with_twist = with_idempotent = 0
    for p, f1, f2 in factor_kernels(cat):
        assert p.algebra.same_structure(tensor_algebras(f1, f2))
        restricted = restrict_to_factor(p, f1, f2, side)
        assert coordinate_lists(restricted.module.twist) == restricted_reference(
            p.module.twist, f1, f2, side)
        with_twist += any(p.module.twist_columns)
        if p.idempotent is not None:
            assert coordinate_lists(restricted.idempotent.entries) == \
                restricted_reference(p.idempotent.entries, f1, f2, side)
            with_idempotent += 1
    assert with_twist >= 3 and with_idempotent >= 3


def test_right_multiplication_map_matches_products(cat):
    """(1 (x) b_t) (1 (x) beta_q) g_i = (1 (x) b_t beta_q) g_i, the product
    in the product algebra, read over the generators (i, u), for every
    basis index t of f2."""
    checked = 0
    for p, f1, f2 in factor_kernels(cat):
        prod = tensor_algebras(f1, f2)
        restricted = restrict_to_factor(p, f1, f2, "first")
        index = {(i, q): i * f2.dim + q for i in range(p.rank)
                 for q in range(f2.dim)}
        for t in range(f2.dim):
            rmul = right_multiplication_map(restricted, f2, t)
            right = labelled_tensor(prod, f1, f2, f1.unit, unit_vector(f2, t))
            want = [[[F(0)] * f1.dim for _ in index] for _ in index]
            for (i, q), col in index.items():
                product = right * labelled_tensor(prod, f1, f2, f1.unit,
                                                  unit_vector(f2, q))
                for flat, c in enumerate(product.coords):
                    pa, u = divmod(flat, f2.dim)
                    want[index[(i, u)]][col][pa] += c
            assert coordinate_lists(rmul.entries) == want
            assert_normal_form(rmul.columns, len(index))
            checked += 1
    assert checked >= 40


# -- normal form of the stored columns ---------------------------------------

def with_explicit_zeros(e):
    """The same element with every zero coordinate a fresh Fraction(0)."""
    return AlgebraElement(e.algebra, tuple(c if c else F(0, 7) for c in e.coords))


def is_stored_scalar(c):
    """The one stored form of a nonzero rational: a nonzero int, or a
    Fraction that is not an integer."""
    return (type(c) is int and c != 0) or (type(c) is F and c.denominator != 1)


def assert_normal_form(columns, nrows):
    """Rows ascending and in range, no empty entry, coordinate indices
    ascending, every coefficient a stored scalar."""
    for col in columns:
        rows = [j for j, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= j < nrows for j in rows)
        for _, vec in col:
            assert vec
            assert [t for t, _ in vec] == sorted({t for t, _ in vec})
            assert all(is_stored_scalar(c) for _, c in vec)


@pytest.mark.parametrize("name", CATALOG)
def test_structure_constants_are_stored_scalars(cat, name):
    """mult, diff and unit of every catalog algebra, its opposite and its
    two enveloping algebras hold each coefficient in its one stored form."""
    a = cat[name].algebra
    for alg in (a, opposite(a), tensor_algebras(a, opposite(a)),
                tensor_algebras(opposite(a), a)):
        for vec in list(alg.mult.values()) + list(alg.diff.values()):
            assert vec and all(is_stored_scalar(c) for _, c in vec)
        assert all(c == 0 and type(c) is int or is_stored_scalar(c) for c in alg.unit)


def half_idempotent_algebra():
    """1, u with u^2 = u/2 (u is half an idempotent): a structure constant
    that is not an integer."""
    mult = {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),),
            (1, 1): ((1, F(1, 2)),)}
    return validate_algebra(["1", "u"], [0, 0], mult, [1, 0])


def as_fractions(vec):
    return tuple((t, F(c)) for t, c in vec)


def fraction_columns(columns):
    return tuple(tuple((j, as_fractions(vec)) for j, vec in col) for col in columns)


def fraction_twin(a):
    """The algebra a with every stored coefficient a Fraction, integers
    included: the all-Fraction form the kernels must agree with."""
    twin = DgAlgebra(a.labels, a.degrees, {}, a.unit)
    twin.mult = {k: as_fractions(v) for k, v in a.mult.items()}
    twin.diff = {k: as_fractions(v) for k, v in a.diff.items()}
    twin.unit = tuple(map(F, a.unit))
    return twin


def mixed_vector(a, rng):
    """Stored coordinates of a random element plus a third of another:
    ints and non-integral Fractions side by side."""
    x = random_entry(a, 0, rng) + random_entry(a, 0, rng).scale(F(1, 3))
    return sparse(x.coords)


@pytest.mark.parametrize("make", [exterior_algebra, square_zero_dg_algebra,
                                  half_idempotent_algebra])
def test_stored_ints_compute_what_all_fractions_compute(make):
    """add_product, ModuleMap.compose and ModuleMap.differential on stored
    scalars (ints where integral) against the same inputs held as Fractions
    throughout: equal values, both in stored form, never a float."""
    a = make()
    twin = fraction_twin(a)
    assert any(type(c) is int for v in a.mult.values() for _, c in v)
    rng = SplitMix64(19)
    for _ in range(25):
        u, v = mixed_vector(a, rng), mixed_vector(a, rng)
        out, out_twin = [0] * a.dim, [F(0)] * a.dim
        a.add_product(out, u, v)
        twin.add_product(out_twin, as_fractions(u), as_fractions(v))
        assert out == out_twin and not any(type(x) is float for x in out)
        m1, m2, m3 = (random_module(a, rng) for _ in range(3))
        d1, d2 = rng.int_in(-1, 1), rng.int_in(-1, 1)
        phi = random_map(m1, m2, d1, rng) + random_map(m1, m2, d1, rng).scale(F(1, 3))
        psi = random_map(m2, m3, d2, rng).scale(F(-3, 2))
        twins = {id(m): SemiFreeModule.from_columns(
            twin, m.shifts, fraction_columns(m.twist_columns))
            for m in (m1, m2, m3)}

        def fraction_map(f):
            return ModuleMap.from_columns(twins[id(f.source)], twins[id(f.target)],
                                          f.degree, fraction_columns(f.columns))
        for got, want in ((psi.compose(phi), fraction_map(psi).compose(fraction_map(phi))),
                          (phi.differential(), fraction_map(phi).differential()),
                          (psi.differential(), fraction_map(psi).differential())):
            assert got.columns == want.columns
            assert_normal_form(got.columns, got.target.rank)
            assert_normal_form(want.columns, want.target.rank)


def test_sparse_kernel_on_stored_ints_matches_all_fractions():
    """Integer pivots 2 and -1 are divided as Fractions: the kernel of the
    integer rows (zeros included) equals the kernel of the all-Fraction
    ones, in stored form, with no float."""
    rows = [[2, 4, -1, 3, 0, 1], [0, -1, 1, 2, 1, 0], [4, 7, -1, 8, 1, 2],
            [0, 0, 0, -1, F(1, 2), 3]]
    got = sparse_kernel([dict(enumerate(r)) for r in rows], 6)
    want = sparse_kernel([{j: F(x) for j, x in enumerate(r) if x}
                          for r in rows], 6)
    assert got == want and len(got) == 3
    assert all(is_stored_scalar(x) for vec in got for _, x in vec)
    assert any(type(x) is F for vec in got for _, x in vec)
    assert not any(type(x) is float for vec in want for _, x in vec)


@pytest.mark.parametrize("name", ["kxk", "M2", "A2", "Kronecker"])
def test_stored_columns_are_in_normal_form(cat, name):
    ent = cat[name]
    a = ent.algebra
    seen_idempotent = False
    for index in range(5):
        rng = stream_for(97, 10 * index + len(name))
        p = random_perfect(a, rng, ent.idempotents, max_gens=3)
        m = p.module
        f = random_map(m, m, 0, rng)
        # the same map and twist from grids with a.zero() entries and with
        # explicit Fraction(0) coordinates give identical columns
        g = ModuleMap(m, m, 0, [[with_explicit_zeros(e) for e in row]
                                for row in f.entries])
        zeros = ModuleMap(m, m, 0, [[a.zero() if e.is_zero() else e for e in row]
                                    for row in f.entries])
        assert g.columns == zeros.columns == f.columns and g == f
        twin = SemiFreeModule(a, m.shifts, [[with_explicit_zeros(e) for e in row]
                                            for row in m.twist])
        assert twin.twist_columns == m.twist_columns and twin == m
        zero = f + f.scale(-1)
        assert zero.is_zero() and zero == ModuleMap.zero(m, m)
        for phi in (f, g, f.compose(f), f.differential(), zero, f.scale(3)):
            assert_normal_form(phi.columns, m.rank)
        assert_normal_form(m.twist_columns, m.rank)
        if p.idempotent is not None:
            efe = p.compress(f)
            assert_normal_form(efe.columns, m.rank)
            e = p.idempotent
            assert e.compose(efe).compose(e) == efe
            seen_idempotent = True
        # the dense views are grids of elements with Fraction coordinates
        for grid in (f.entries, m.twist):
            assert all(isinstance(e, AlgebraElement) and e.algebra is a
                       and all(type(c) is F for c in e.coords)
                       for row in grid for e in row)
        assert ModuleMap(m, m, 0, f.entries) == f
    assert seen_idempotent


# -- compression by an idempotent -------------------------------------------

def generator_kinds(e):
    """Per generator of e's module, read from the grid of e: "fixed" when
    its column is the unit on the diagonal and its row holds nothing else,
    "unit column" when only the column is, else "moved"."""
    a, grid, n = e.source.algebra, e.entries, e.source.rank
    kinds = []
    for i in range(n):
        unit_column = all(grid[j][i].coords == tuple(a.unit) if j == i
                          else grid[j][i].is_zero() for j in range(n))
        clear_row = all(grid[i][k].is_zero() for k in range(n) if k != i)
        kinds.append("moved" if not unit_column
                     else "fixed" if clear_row else "unit column")
    return kinds


def conjugated(p, rng):
    """u e u^-1 for u = 1 + n, n a random closed map from the last generator
    (a projective summand) into the others, so n n = 0 and u^-1 = 1 - n;
    None when no such n is nonzero."""
    m, last = p.module, p.rank - 1
    into_base = [b for b in closed_map_basis(m, m, 0)
                 if all(not col for col in b.columns[:last])
                 and all(j < last for j, _ in b.columns[last])]
    n = ModuleMap.zero(m, m)
    for b in into_base:
        n = n + b.scale(random_coeff(rng))
    if n.is_zero():
        return None
    one = ModuleMap.identity(m)
    return PerfectModule(m, (one + n).compose(p.idempotent).compose(one - n))


def compression_cases(cat):
    """(source, summand) pairs for the compression oracle."""
    for name in CATALOG:
        ent = cat[name]
        a = ent.algebra
        for v in ent.idempotents:
            rng = stream_for(89, 10 * v + len(name))
            base = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
            summand = projective_module(a, a.basis_element(v),
                                        shift=rng.int_in(-1, 1))
            p = direct_sum_modules(base, summand)
            yield "catalog", p
            yield "catalog", direct_sum_modules(summand, base)
            yield "all fixed", PerfectModule(base.module,
                                             ModuleMap.identity(base.module))
            for _ in range(3):
                q = conjugated(p, rng)
                if q is not None:
                    yield "conjugated", q
        if len(ent.idempotents) > 1:
            first, second = (projective_module(a, a.basis_element(v))
                             for v in ent.idempotents[:2])
            yield "none fixed", direct_sum_modules(first, second)
    for p, f1, f2 in factor_kernels(cat):
        if p.idempotent is not None:
            for side in ("first", "second"):
                yield "restrict_to_factor", restrict_to_factor(p, f1, f2, side)
    for rname, sname in OUTER_PAIRS:
        r, s = cat[rname].algebra, cat[sname].algebra
        rng = stream_for(91, len(rname + sname))
        for _ in range(2):
            p1, p2 = (random_perfect(x, rng, cat[name].idempotents, max_gens=2,
                                     shift_range=(-1, 1))
                      for x, name in ((r, rname), (s, sname)))
            big = outer_tensor_modules(p1, p2)
            if big.idempotent is not None:
                yield "outer_tensor_modules", big
    k = cat["k"].algebra
    ent_b = cat["kxk"]
    b = ent_b.algebra
    rng = stream_for(93, b.dim)
    for _ in range(3):
        k1, k2 = (random_perfect(x, rng, ent_b.idempotents, max_gens=2,
                                 shift_range=(-1, 1))
                  for x in (tensor_algebras(k, opposite(b)),
                            tensor_algebras(b, opposite(k))))
        composite = compose_kernels(k1, k2, k, k, ent_b.resolution)
        if composite.idempotent is not None:
            yield "compose_kernels", composite
    a = exterior_algebra()
    one, x = a.by_label("1"), a.by_label("x")
    zero = a.zero()
    m = SemiFreeModule(a, [0, 1, 0])
    for grid in ([[one, x, zero], [zero, zero, zero], [zero, zero, one]],
                 [[zero, x, zero], [zero, one, zero], [zero, zero, one]]):
        yield "exterior", PerfectModule(m, ModuleMap(m, m, 0, grid))


def test_compress_matches_two_products(cat):
    """PerfectModule.compress, which copies f where e fixes a generator,
    against e . f . e by two full products, column for column, for maps
    of degree -1, 0 and 1 on summands cut by catalog idempotents on either
    side of a base, by the idempotents of restrict_to_factor,
    outer_tensor_modules and compose_kernels, by conjugates u e u^-1 that
    leave a unit column whose row is not clear, by idempotents that fix no
    generator and every generator, and over the exterior algebra, where
    odd maps meet the odd entry x of e and the Koszul signs show."""
    sources, kinds = Counter(), Counter()
    odd_signs = 0
    rng = SplitMix64(97)
    for source, p in compression_cases(cat):
        e, m = p.idempotent, p.module
        split = generator_kinds(e)
        # the Koszul signs change e f e on about one odd exterior draw in six
        for degree in (-1, 0, 1) * (10 if source == "exterior" else 1):
            f = random_map(m, m, degree, rng)
            got, want = p.compress(f), compressed(p, f)
            assert (got.source, got.target, got.degree) == \
                (want.source, want.target, want.degree)
            assert len(got.columns) == len(want.columns) == m.rank
            for i, (g, w) in enumerate(zip(got.columns, want.columns)):
                assert g == w, (source, degree, i)
            # the same columns read as an even map: no Koszul sign at all
            even = ModuleMap.from_columns(m, m, 0, f.columns)
            odd_signs += degree % 2 and want != compressed(p, even)
        sources[source] += 1
        kinds.update(split)
        if source == "none fixed":
            assert "fixed" not in split
        if source == "all fixed":
            assert set(split) == {"fixed"}
    assert min(sources.values()) >= 2 and len(sources) == 8, sources
    assert kinds["fixed"] > 0 and kinds["moved"] > 0 and kinds["unit column"] > 0
    assert odd_signs > 0
