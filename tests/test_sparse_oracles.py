"""The coordinate-level main-theorem pipeline against dense references.

Sampling in kernel coordinates against scaling and adding the ModuleMaps of
closed_map_basis; sparse ModuleMap products and the compressed supertrace
against entry-by-entry products through AlgebraElement.__mul__ (the dense
DgAlgebra.multiply scan); the tr(f.e) supertrace of a split complex
against the supertrace of the formed e.f.e.
"""

from fractions import Fraction

import pytest

from dgtrace.algebras import opposite, validate_algebra
from dgtrace.complexes import ChainMap, chain_supertrace
from dgtrace.errors import WrongDegree
from dgtrace.hochschild import compressed_supertrace, generalized_supertrace
from dgtrace.linalg import RationalMatrix
from dgtrace.modules import ModuleMap, SemiFreeModule, tensor_over_algebra
from dgtrace.prng import SplitMix64, stream_for
from dgtrace.sampling import (EndoSampler, closed_map_basis, random_closed_pair,
                              random_coeff, random_element_of_degree,
                              random_module_with_endos, random_perfect,
                              random_semifree)

F = Fraction
ONE = F(1)


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
    return ModuleMap(phi.source, psi.target, psi.degree + phi.degree, rows,
                     check=False)


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
    return ModuleMap(src, tgt, n + 1, rows, check=False)


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


def random_entry(a, degree, rng):
    """Homogeneous of the given degree, or now and then a mixed element, so
    the 'mixed counts as degree 0' sign rule is exercised too."""
    if rng.below(5) == 0:
        return a.element([random_coeff(rng) for _ in range(a.dim)])
    return random_element_of_degree(a, degree, rng)


def random_module(a, rng):
    shifts = [rng.int_in(-2, 1) for _ in range(1 + rng.below(3))]
    n = len(shifts)
    twist = [[random_entry(a, 1 + shifts[j] - shifts[i], rng) if j > i
              else a.zero() for i in range(n)] for j in range(n)]
    return SemiFreeModule(a, shifts, twist, check=False)


def random_map(src, tgt, degree, rng):
    a = src.algebra
    rows = [[random_entry(a, degree + tgt.shifts[j] - src.shifts[i], rng)
             for i in range(src.rank)] for j in range(tgt.rank)]
    return ModuleMap(src, tgt, degree, rows, check=False)


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
            induced = sc.realization.map_tensor(ns.draw(rng).restrict(), ms.draw(rng))
            for f in (induced, random_endo(sc.carrier, rng)):
                assert sc.supertrace(f) == chain_supertrace(sc.compress(f))
                checked += 1
            with pytest.raises(WrongDegree):
                sc.supertrace(ChainMap.zero(sc.carrier, sc.carrier, 1))
    assert checked >= 10


def test_compressed_supertrace_matches_dense_compression(cat):
    checked = 0
    for name in ("kxk", "M2", "A2", "A3", "Kronecker", "A2xA2"):
        ent = cat[name]
        a = ent.algebra
        for index in range(4):
            rng = stream_for(37, 10 * index + len(name))
            p = random_perfect(a, rng, ent.idempotents, max_gens=3)
            if p.idempotent is None:
                continue
            f = random_map(p.module, p.module, 0, rng)
            efe = dense_compose(p.idempotent, dense_compose(f, p.idempotent))
            assert compressed_supertrace(p, f) == generalized_supertrace(p, efe)
            checked += 1
    assert checked > 0
