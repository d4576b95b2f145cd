from fractions import Fraction

import pytest

from dgtrace import hochschild
from dgtrace.algebras import DgAlgebra, opposite
from dgtrace.catalog import catalog_entry
from dgtrace.complexes import chain_supertrace, euler_trace
from dgtrace.errors import (AlgebraMismatch, DimensionMismatch,
                            IdempotentIncompatible, NotClosed,
                            NotDegreeZeroConcentrated)
from dgtrace.hochschild import (euler_class, hh0_space, hh_class,
                                hh_via_dualizing)
from dgtrace.modules import (ModuleMap, PerfectModule, cone_module,
                             direct_sum_modules, free_module,
                             projective_module)
from dgtrace.pairing import pairing_three_ways, verify_rr
from dgtrace.prng import SplitMix64, stream_for
from dgtrace.sampling import (EndoSampler, random_closed_pair, random_coeff,
                              random_module_with_endos)
from oracles import shift_module

F = Fraction


def test_hh0_ground(kfield):
    assert hh0_space(kfield).dim == 1


def test_hh0_a2(a2):
    sp = hh0_space(a2)
    assert sp.dim == 2
    assert all(c == 0 for c in sp.project(a2.by_label("a")))
    # classes of e1, e2 form a basis
    c1 = sp.project(a2.by_label("e1"))
    c2 = sp.project(a2.by_label("e2"))
    assert c1 != c2 and any(c1) and any(c2)


def test_hh0_m2(m2):
    sp = hh0_space(m2)
    assert sp.dim == 1
    assert sp.project(m2.by_label("E11")) == sp.project(m2.by_label("E22"))
    assert all(c == 0 for c in sp.project(m2.by_label("E12")))


def test_hh0_a3(a3):
    assert hh0_space(a3).dim == 3


def test_hh0_rejects_graded():
    from dgtrace.algebras import validate_algebra
    mult = {(0, 0): ((0, F(1)),), (0, 1): ((1, F(1)),), (1, 0): ((1, F(1)),)}
    a = validate_algebra(["1", "x"], [0, -1], mult, [F(1), F(0)])
    with pytest.raises(NotDegreeZeroConcentrated):
        hh0_space(a)


def test_hh_class_right_multiplication(a2):
    # (A as module over itself, right multiplication by a) has class [a]
    sp = hh0_space(a2)
    fm = free_module(a2, [0])
    for label in ("e1", "e2", "a"):
        x = a2.by_label(label)
        cls = hh_class(fm, ModuleMap(fm.module, fm.module, 0, [[x]]), sp)
        assert cls.coords == sp.project(x)


def test_hh_class_projective(a2):
    P2 = projective_module(a2, a2.by_label("e2"))
    sp = hh0_space(a2)
    assert euler_class(P2, sp).coords == sp.project(a2.by_label("e2"))


def test_hh_class_of_contractible(a2):
    cn = cone_module(ModuleMap.identity(free_module(a2, [0]).module))
    assert euler_class(cn).is_zero()


def test_euler_class_free_rank_n(kfield):
    sp = hh0_space(kfield)
    m = free_module(kfield, [0, 0, 0])
    assert euler_class(m, sp).coords == (F(3),)


def test_euler_class_sum_of_projectives(a2):
    sp = hh0_space(a2)
    P1 = projective_module(a2, a2.by_label("e1"))
    P2 = projective_module(a2, a2.by_label("e2"))
    s = direct_sum_modules(P1, P2)
    assert euler_class(s, sp).coords == sp.project(a2.one())


def test_shift_negates_class(a2):
    rng = SplitMix64(61)
    from dgtrace.sampling import random_perfect
    sp = hh0_space(a2)
    ent = catalog_entry("A2")
    for _ in range(3):
        p = random_perfect(a2, rng, ent.idempotents, max_gens=3)
        c = euler_class(p, sp)
        cs = euler_class(shift_module(p, 1), sp)
        assert cs.coords == tuple(-x for x in c.coords)


def test_hh_class_requires_closed(a2):
    m = cone_module(ModuleMap(free_module(a2, [0]).module,
                              free_module(a2, [0]).module, 0,
                              [[a2.by_label("a")]]))
    # a non-closed endomorphism: e2 on the second cone generator does not
    # commute with the twist a
    entries = [[a2.zero(), a2.zero()], [a2.zero(), a2.by_label("e2")]]
    f = ModuleMap(m.module, m.module, 0, entries)
    assert not f.is_closed()
    with pytest.raises(NotClosed):
        hh_class(m, f)
    with pytest.raises(NotClosed):
        euler_trace(f.restrict())


def test_hh_class_idempotent_compatibility(a2):
    P2 = projective_module(a2, a2.by_label("e2"))
    ident = ModuleMap.identity(P2.module)
    with pytest.raises(IdempotentIncompatible):
        hh_class(P2, ident)  # raw identity is not compressed


def test_a_mark_of_another_idempotent_is_compressed_in_full(a2):
    # P1 and P2 have equal carriers; a nonzero draw f = e1 f e1 of P1's
    # sampler is marked drawn from P1, so P2's guard must still compute
    # e2 f e2 = 0 != f
    P1 = projective_module(a2, a2.by_label("e1"))
    P2 = projective_module(a2, a2.by_label("e2"))
    assert P1.module == P2.module
    f = EndoSampler(P1).draw(SplitMix64(3))
    assert not f.is_zero()
    assert f.drawn_from is P1
    with pytest.raises(IdempotentIncompatible):
        hh_class(P2, f)


def test_hh_class_of_a_draw_takes_no_product(a2, monkeypatch):
    """A sampler draw is e f e marked drawn from its module, so the guard
    of hh_class does not compress it and its closedness is not checked;
    the same columns rebuilt without the mark cost one compression e f e
    and one closedness check, and give the same class."""
    sp = hh0_space(a2)
    ent = catalog_entry("A2")
    rng = SplitMix64(83)
    m, sampler = random_module_with_endos(a2, rng, ent.idempotents, max_gens=3)
    while m.idempotent is None:
        m, sampler = random_module_with_endos(a2, rng, ent.idempotents, max_gens=3)
    f = sampler.draw(rng)
    calls, closed = [], []
    compress, is_closed = PerfectModule.compress, ModuleMap.is_closed

    def counted(self, g):
        calls.append(g)
        return compress(self, g)

    def counted_closed(self):
        closed.append(self)
        return is_closed(self)
    monkeypatch.setattr(PerfectModule, "compress", counted)
    monkeypatch.setattr(ModuleMap, "is_closed", counted_closed)
    drawn = hh_class(m, f, sp)
    assert len(calls) == 0
    assert len(closed) == 0
    rebuilt = ModuleMap.from_columns(f.source, f.target, 0, f.columns)
    assert rebuilt.drawn_from is None
    assert hh_class(m, rebuilt, sp) == drawn
    assert calls == [rebuilt]
    assert closed == [rebuilt]


def test_euler_class_of_a_projective_takes_no_product(a2, monkeypatch):
    """euler_class hands hh_class the idempotent e itself, which compress
    returns unchanged (e e e = e), so the guard composes nothing."""
    p = projective_module(a2, a2.by_label("e1"))
    calls = []
    compose = ModuleMap.compose

    def counted(self, other):
        calls.append(other)
        return compose(self, other)
    monkeypatch.setattr(ModuleMap, "compose", counted)
    got = euler_class(p)
    assert len(calls) == 0
    assert p.compress(p.idempotent) is p.idempotent
    monkeypatch.undo()
    want = hh0_space(a2).class_of(a2.by_label("e1"))
    assert got == want
    assert got == hh_class(p, ModuleMap.from_columns(p.module, p.module, 0,
                                                     p.idempotent.columns))


def block_diagonal(msum, f1, f2):
    """f1 (+) f2 on the direct sum msum = direct_sum_modules(...) of their
    modules, through the checked grid constructor."""
    zero = msum.algebra.zero()
    n1, n2 = f1.source.rank, f2.source.rank
    rows = ([list(row) + [zero] * n2 for row in f1.entries]
            + [[zero] * n1 + list(row) for row in f2.entries])
    return ModuleMap(msum.module, msum.module, 0, rows)


def test_additivity(a2):
    rng = SplitMix64(67)
    sp = hh0_space(a2)
    ent = catalog_entry("A2")
    m1, s1 = random_module_with_endos(a2, rng, ent.idempotents, max_gens=3)
    m2_, s2 = random_module_with_endos(a2, rng, ent.idempotents, max_gens=3)
    f1 = s1.draw(rng)
    f2 = s2.draw(rng)
    msum = direct_sum_modules(m1, m2_)
    fsum = block_diagonal(msum, f1, f2)
    total = hh_class(msum, fsum, sp)
    assert total.coords == tuple(
        x + y for x, y in zip(hh_class(m1, f1, sp).coords,
                              hh_class(m2_, f2, sp).coords))


def test_stability_under_contractible_summand(a2):
    rng = SplitMix64(71)
    sp = hh0_space(a2)
    ent = catalog_entry("A2")
    m, sampler = random_module_with_endos(a2, rng, ent.idempotents, max_gens=3)
    f = sampler.draw(rng)
    pad = cone_module(ModuleMap.identity(free_module(a2, [0]).module))
    msum = direct_sum_modules(m, pad)
    fsum = block_diagonal(msum, f, ModuleMap.identity(pad.module))
    assert hh_class(msum, fsum, sp).coords == hh_class(m, f, sp).coords


def test_conjugation_invariance(cat):
    rng = SplitMix64(73)
    for i in range(12):
        name = ("A2", "M2", "kxk", "A3")[i % 4]
        a = cat[name].algebra
        sp = hh0_space(a)
        m, n, g, h = random_closed_pair(a, rng, max_gens=3)
        assert hh_class(n, g.compose(h), sp).coords == \
            hh_class(m, h.compose(g), sp).coords


def test_ground_field_class_is_euler_trace(kfield):
    rng = SplitMix64(79)
    sp = hh0_space(kfield)
    for _ in range(5):
        m, sampler = random_module_with_endos(kfield, rng, (0,), max_gens=3)
        f = sampler.draw(rng)
        chain = f.restrict()
        if m.idempotent is not None:
            proj = m.idempotent.restrict()
            chain = proj.compose(chain).compose(proj)
        assert hh_class(m, f, sp).coords == (chain_supertrace(chain),)


def test_two_descriptions_dims(cat):
    hereditary = {"A2", "A3", "Kronecker"}
    for name, ent in cat.items():
        dims = hh_via_dualizing(ent.algebra, ent.resolution)
        assert dims.dim(0) == hh0_space(ent.algebra).dim, name
        if name in hereditary:
            assert all(p == 0 for p in dims.degrees()), name


def test_dualizing_description_values(cat):
    assert dict(hh_via_dualizing(cat["k"].algebra,
                                 cat["k"].resolution).dims) == {0: 1}
    assert dict(hh_via_dualizing(cat["M2"].algebra,
                                 cat["M2"].resolution).dims) == {0: 1}
    assert dict(hh_via_dualizing(cat["A2"].algebra,
                                 cat["A2"].resolution).dims) == {0: 2}


@pytest.mark.parametrize("name, other", [("kxk", "A2"), ("A2", "A3"), ("M2", "k")])
def test_dualizing_description_rejects_another_algebras_resolution(cat, name, other):
    with pytest.raises(AlgebraMismatch):
        hh_via_dualizing(cat[name].algebra, cat[other].resolution)


def test_hh0_matches_dense_commutators(cat):
    from dgtrace.algebras import opposite, tensor_algebras
    from dgtrace.linalg import (SubspacePresentation, echelon_basis,
                                quotient_presentation)
    algebras = [ent.algebra for ent in cat.values()]
    algebras += [tensor_algebras(opposite(a), a) for a in algebras if a.dim <= 4]
    for a in algebras:
        n = a.dim
        basis = [a.basis_element(i).coords for i in range(n)]
        comms = []
        for i in range(n):
            for j in range(n):
                vec = tuple(x - y for x, y in zip(a.multiply(basis[i], basis[j]),
                                                  a.multiply(basis[j], basis[i])))
                if any(vec):
                    comms.append(vec)
        sub = echelon_basis(comms, n)
        proj, section = quotient_presentation(n, SubspacePresentation(n, tuple(sub)))
        sp = hh0_space(a)
        assert sp.commutator_dim == len(sub)
        assert (sp.projection, sp.section) == (proj, section)


def test_class_of_rejects_another_algebra(m2, kronecker):
    # M2 and the Kronecker algebra both have dimension 4: without the check
    # the identity of M2 would project to a class (1, 0) of HH_0(Kronecker)
    m = free_module(m2, [0])
    f = m.identity_map()
    with pytest.raises(AlgebraMismatch):
        hh_class(m, f, hh0_space(kronecker))
    with pytest.raises(AlgebraMismatch):
        euler_class(m, hh0_space(kronecker))
    with pytest.raises(AlgebraMismatch):
        hh0_space(kronecker).class_of(m2.one())
    assert hh_class(m, f, hh0_space(m2)).coords == (F(2),)
    # a separately built algebra of the same structure is the same algebra
    copy = DgAlgebra(m2.labels, m2.degrees, m2.mult, m2.unit)
    assert hh_class(m, f, hh0_space(copy)).coords == (F(2),)


def test_hh_class_rejects_a_map_into_another_module(a2):
    # e1 into the first generator: a closed degree-0 map M -> N whose
    # source is M, which used to get the class (1, 0)
    m, n = free_module(a2, [0]), free_module(a2, [0, 1])
    f = ModuleMap(m.module, n.module, 0, [[a2.by_label("e1")], [a2.zero()]])
    assert f.is_closed()
    with pytest.raises(DimensionMismatch):
        hh_class(m, f)


def test_classes_over_different_algebras_do_not_add(a2):
    aop = opposite(a2)
    lam = hh0_space(a2).class_of(a2.by_label("e1"))
    mu = hh0_space(aop).class_of(aop.by_label("e2"))
    with pytest.raises(AlgebraMismatch):
        lam + mu
    with pytest.raises(AlgebraMismatch):
        lam - mu
    assert (lam + lam).coords == lam.scale(2).coords


@pytest.mark.parametrize("name", ("k", "kxk", "M2", "A2", "A3", "Kronecker",
                                  "A2xA2"))
def test_class_coordinates_are_linear(cat, name):
    """A class's coordinates are the projection of its representative, so
    they add and scale with it, and the coset representatives project to
    the unit vectors."""
    a = cat[name].algebra
    sp = hh0_space(a)
    rng = stream_for(101, len(name))

    def draw():
        return sp.class_of(a.element([random_coeff(rng) if rng.below(3) else F(0)
                                      for _ in range(a.dim)]))

    for _ in range(6):
        x, y = draw(), draw()
        c = random_coeff(rng)
        assert (x + y).coords == tuple(p + q for p, q in zip(x.coords, y.coords))
        assert (x - y).coords == tuple(p - q for p, q in zip(x.coords, y.coords))
        assert x.scale(c).coords == tuple(c * p for p in x.coords)
    assert [lam.coords for lam in sp.basis_classes()] == [
        tuple(F(int(r == t)) for r in range(sp.dim)) for t in range(sp.dim)]


# -- the HH_0 presentation is built on first read ----------------------------

@pytest.mark.parametrize("name", ("k", "kxk", "M2", "A2", "A3", "Kronecker",
                                  "A2xA2"))
def test_class_coordinates_read_on_first_use_are_the_projection(cat, name):
    """Coordinates projected on first read equal `project` of the
    representative, for classes made by class_of, +, scale and
    basis_classes."""
    a = cat[name].algebra
    sp = hh0_space(a)
    rng = stream_for(113, len(name))
    x, y = (sp.class_of(a.element([random_coeff(rng) for _ in range(a.dim)]))
            for _ in range(2))
    made = [x, y, x + y, x - y, x.scale(random_coeff(rng))]
    assert not any("coords" in vars(c) for c in made)
    for c in made + list(sp.basis_classes()):
        assert c.coords == sp.project(c.representative)


def counted_presentations(monkeypatch):
    """The ambient dimension of every HH_0 space presented from now on."""
    dims = []
    present = hochschild.quotient_presentation

    def counted(n, sub):
        dims.append(n)
        return present(n, sub)
    monkeypatch.setattr(hochschild, "quotient_presentation", counted)
    return dims


def test_cold_three_pairings_present_no_enveloping_space(fresh_catalog, monkeypatch):
    """The classes over ^eA (x) k^op and k (x) (^eA)^op are read only through
    their representatives, so a cold pairing_three_ways on M2 presents no
    space of ambient dimension 16 = dim ^eA; the values still agree."""
    ent = fresh_catalog["M2"]
    a = ent.algebra
    lam = hh0_space(opposite(a)).class_of(opposite(a).by_label("E11"))
    mu = hh0_space(a).class_of(a.by_label("E11"))
    dims = counted_presentations(monkeypatch)
    s1, s2, s3 = pairing_three_ways(a, ent.resolution, lam, mu,
                                    ent.enveloping_resolution(), {})
    assert s1 == s2 == s3 == F(1)
    assert 16 not in dims
    assert dims


def test_verify_rr_presents_no_space(fresh_catalog, monkeypatch):
    """verify_rr pairs representatives and never reads class coordinates."""
    ent = fresh_catalog["A2"]
    a = ent.algebra
    rng = SplitMix64(29)
    m, sm = random_module_with_endos(a, rng, ent.idempotents, max_gens=2)
    n, sn = random_module_with_endos(opposite(a), rng, ent.idempotents, max_gens=2)
    dims = counted_presentations(monkeypatch)
    report = verify_rr(m, sm.draw(rng), n, sn.draw(rng))
    assert report.equal
    assert dims == []
