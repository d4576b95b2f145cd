"""The sampler's draws are trusted once: `EndoSampler.draw` marks e f e
`drawn_from` its module, and that module's guard and `hh_class` take the
draw without a check.  These tests hold the trust to what it vouches for,
on every catalog algebra and its opposite, with and without a projective
summand: every kernel vector is closed with valid entry degrees, and every
draw, rebuilt without its mark, passes the full guard and the closedness
check with the same class.  Any other module, even one with an equal
carrier, checks a draw in full.  The projective summands the sampler sums
on are memoised on their algebra, and the memo stays bounded."""

import pytest

from dgtrace.algebras import opposite
from dgtrace.catalog import catalog, catalog_entry
from dgtrace.errors import IdempotentIncompatible, NotClosed
from dgtrace.hochschild import hh0_space, hh_class
from dgtrace.modules import (ModuleMap, PerfectModule, cone_module,
                             direct_sum_modules, free_module, projective_module)
from dgtrace.prng import SplitMix64
from dgtrace.sampling import EndoSampler, closed_map_basis, random_semifree
from dgtrace.suites import rr_tally

CASES = [(name, side, summand) for name in catalog()
         for side in ("A", "Aop") for summand in (False, True)
         if not summand or catalog_entry(name).idempotents]


def _modules(name, side, summand):
    """Three twisted modules over the algebra of the case, each summed with
    a projective summand A.e[s] when asked, e running over the idempotents."""
    ent = catalog_entry(name)
    a = ent.algebra if side == "A" else opposite(ent.algebra)
    rng = SplitMix64(sum(map(ord, name + side)))
    max_gens = 3 if a.dim > 6 else 4
    for i in range(3):
        m = random_semifree(a, rng, max_gens=max_gens, shift_range=(-1, 1))
        while not any(m.module.twist_columns):
            m = random_semifree(a, rng, max_gens=max_gens, shift_range=(-1, 1))
        if summand:
            e = a.basis_element(ent.idempotents[i % len(ent.idempotents)])
            m = direct_sum_modules(m, projective_module(a, e, rng.int_in(-1, 1)))
        yield m, rng


@pytest.mark.parametrize("name,side,summand", CASES)
def test_every_kernel_vector_is_closed_with_valid_degrees(name, side, summand):
    for m, _ in _modules(name, side, summand):
        basis = closed_map_basis(m.module, m.module)
        assert basis
        for phi in basis:
            assert phi.validate().is_closed()


@pytest.mark.parametrize("name,side,summand", CASES)
def test_every_draw_passes_the_full_guard_unmarked(name, side, summand):
    for m, rng in _modules(name, side, summand):
        assert (m.idempotent is not None) == summand
        sp = hh0_space(m.algebra)
        sampler = EndoSampler(m)
        for _ in range(4):
            f = sampler.draw(rng)
            assert f.drawn_from is m
            rebuilt = ModuleMap.from_columns(f.source, f.target, f.degree,
                                             f.columns)
            assert rebuilt.drawn_from is None
            assert m.endomorphism(rebuilt) is rebuilt
            assert rebuilt.is_closed()
            assert hh_class(m, rebuilt, sp) == hh_class(m, f, sp)


def test_a_draw_of_another_summand_gets_the_full_guard(a2):
    P1 = projective_module(a2, a2.by_label("e1"))
    P2 = projective_module(a2, a2.by_label("e2"))
    assert P1.module == P2.module
    sampler = EndoSampler(P1)
    rng = SplitMix64(3)
    draws = [sampler.draw(rng) for _ in range(6)]
    assert any(not f.is_zero() for f in draws)
    for f in draws:
        assert f.drawn_from is P1
        assert P1.endomorphism(f) is f
        if not f.is_zero():
            with pytest.raises(IdempotentIncompatible):
                P2.endomorphism(f)
            with pytest.raises(IdempotentIncompatible):
                hh_class(P2, f)


def test_a_foreign_mark_is_checked_for_closedness(a2):
    """hh_class trusts only a mark of its own module: a map that is not
    closed, marked as drawn from another module on the same carrier, is
    refused."""
    m = cone_module(ModuleMap(free_module(a2, [0]).module,
                              free_module(a2, [0]).module, 0,
                              [[a2.by_label("a")]]))
    other = PerfectModule(m.module)
    entries = [[a2.zero(), a2.zero()], [a2.zero(), a2.by_label("e2")]]
    f = ModuleMap(m.module, m.module, 0, entries)
    f.drawn_from = other
    assert not f.is_closed()
    with pytest.raises(NotClosed):
        hh_class(m, f)


def test_projective_memo_is_bounded_and_shared(fresh_catalog):
    """After the trace-formula batch at two seeds each algebra holds at most
    one summand per (idempotent, shift), shifts in [-2, 2]; a repeated call
    returns the stored object, and an input that is not idempotent raises
    and is not stored."""
    a2 = fresh_catalog["A2"].algebra
    assert a2._projectives == {}
    with pytest.raises(IdempotentIncompatible):
        projective_module(a2, a2.by_label("a"))  # a . a = 0 != a
    assert a2._projectives == {}
    for seed in (42, 1004):
        for ent in fresh_catalog.values():
            assert rr_tally(ent, 160, seed)["passed"] == 160
    for ent in fresh_catalog.values():
        for a in (ent.algebra, opposite(ent.algebra)):
            assert len(a._projectives) <= len(ent.idempotents) * 5
    assert a2._projectives
    p = projective_module(a2, a2.by_label("e1"), 1)
    assert projective_module(a2, a2.by_label("e1"), 1) is p
    assert projective_module(a2, a2.by_label("e1"), 0) is not p
