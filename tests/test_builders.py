"""Every builder's output is a module.

The builders (direct sums, shifts, cones, factor restrictions, outer
tensors, duals, transports, the shipped resolutions) assemble their results
with `from_columns`, so their twists go unchecked; all but the resolutions
do it through `built_module`, which trusts the idempotent too.  These
seeded sweeps over the catalog run on their outputs the checks that a
caller's data gets at the boundary: `SemiFreeModule.validate`,
`ModuleMap.validate` and the idempotent checks of `PerfectModule`.  Two
exact oracles pin the signs that D^2 = 0 cannot see: the realization of a
shift is the shifted complex, and the realization of a cone is the cone of
the restricted map.  End to end, the pinned CLI batches give the same bytes
with every trusted path replaced by its checked one."""

import hashlib
import importlib
import sys
from types import MappingProxyType

import pytest

from dgtrace import complexes, modules
from dgtrace.algebras import DgAlgebra, env_op_iso, opposite, tensor_algebras
from dgtrace.cli import main
from dgtrace.duality import dualize, transport_module
from dgtrace.modules import (ModuleMap, PerfectModule, SemiFreeModule,
                             cone_module, direct_sum_modules,
                             outer_tensor_modules, projective_module,
                             restrict_to_factor, restrict_to_ground)
from dgtrace.prng import stream_for
from dgtrace.sampling import (EndoSampler, closed_map_system, random_closed_map,
                              random_map_between_frees, random_free,
                              random_perfect, random_semifree)
from oracles import shift_module
from test_acceptance import CLI_BATCH_SHA256

CATALOG = ("k", "kxk", "M2", "A2", "A3", "Kronecker", "A2xA2")


def assert_module(p: PerfectModule):
    """The checks of a caller-given module: the twist's, the idempotent's
    entry degrees and the idempotent's closedness and e . e = e."""
    p.module.validate()
    if p.idempotent is not None:
        p.idempotent.validate()
        PerfectModule(p.module, p.idempotent)


def twisted(p: PerfectModule) -> bool:
    return any(p.module.twist_columns)


def twisted_cone(a, rng):
    """The cone of a random map between frees whose twist is nonzero."""
    while True:
        src = random_free(a, rng, shift_range=(-1, 0))
        tgt = random_free(a, rng, shift_range=(-1, 1))
        p = cone_module(random_map_between_frees(src, tgt, rng))
        if twisted(p):
            return p


def samples(ent, seed, count=6):
    """Seeded modules over the entry's algebra: sampled ones and cones with
    a nonzero twist, in turn, every third one summed with a projective
    module when the algebra ships idempotents."""
    a = ent.algebra
    rng = stream_for(seed, len(ent.name))
    out = []
    for t in range(count):
        p = (twisted_cone(a, rng) if t % 2
             else random_perfect(a, rng, ent.idempotents, max_gens=3))
        if ent.idempotents and t % 3 == 0:
            e = a.basis_element(ent.idempotents[t % len(ent.idempotents)])
            p = direct_sum_modules(p, projective_module(a, e, rng.int_in(-1, 1)))
        out.append(p)
    return out


@pytest.mark.parametrize("name", CATALOG)
def test_sampled_modules_sums_and_shifts_are_modules(cat, name):
    """Sampled modules, their direct sums (with and without idempotents)
    and their shifts by -1, 1 and 2 pass every boundary check, and the
    realization of p[n] is the shifted realization of p."""
    ent = cat[name]
    ps = samples(ent, 5)
    shifts = 0
    for p, q in zip(ps, ps[1:] + ps[:1]):
        assert_module(p)
        assert_module(direct_sum_modules(p, q))
        for n in (-1, 1, 2):
            pn = shift_module(p, n)
            assert_module(pn)
            assert (restrict_to_ground(pn).carrier
                    == complexes.shift(restrict_to_ground(p).carrier, n))
            shifts += 1
    assert shifts == 18
    assert any(twisted(p) for p in ps)
    assert any(p.idempotent is None for p in ps)
    if ent.idempotents:
        assert any(p.idempotent is not None for p in ps)


@pytest.mark.parametrize("name", CATALOG)
def test_cones_of_cones_are_modules(cat, name):
    """Cones of closed maps out of a free module and out of a cone, which
    has a twist, pass every boundary check, and the realization of a cone
    is the cone of the restricted map."""
    a = cat[name].algebra
    rng = stream_for(7, len(name))
    kinds = set()
    while len(kinds) < 2:
        src = twisted_cone(a, rng) if kinds else random_free(a, rng)
        tgt = random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
        f = random_closed_map(src.module, tgt.module,
                              *closed_map_system(src.module, tgt.module), rng)
        if f is None or f.is_zero():
            continue
        c = cone_module(f)
        assert_module(c)
        assert restrict_to_ground(c).carrier == complexes.cone(f.restrict())
        kinds.add(twisted(src))
    assert kinds == {False, True}


@pytest.mark.parametrize("name", CATALOG)
def test_duals_are_modules(cat, name):
    for p in samples(cat[name], 11):
        d = dualize(p)
        assert_module(d)
        assert d.algebra is opposite(p.algebra)


@pytest.mark.parametrize("name", CATALOG)
def test_outer_tensors_with_twists_on_both_factors_are_modules(cat, name):
    """The outer tensor of twisted modules over A and over A2, idempotents
    on either factor included."""
    a, a2 = cat[name], cat["A2"]
    ps = [p for p in samples(a, 13) if twisted(p)]
    qs = [q for q in samples(a2, 17) if twisted(q)]
    assert ps and qs
    for p in ps[:2]:
        for q in qs[:2]:
            t = outer_tensor_modules(p, q)
            assert t.algebra is tensor_algebras(a.algebra, a2.algebra)
            assert twisted(t)
            assert_module(t)


@pytest.mark.parametrize("name", CATALOG)
def test_restrictions_and_transports_of_bimodules_are_modules(cat, name):
    """Modules over A^e = A (x) A^op restricted to either factor and carried
    to (A^e)^op along env_op_iso, sampled ones and the resolution's."""
    a = cat[name].algebra
    aop = opposite(a)
    env = tensor_algebras(a, aop)
    rng = stream_for(19, len(name))
    ps = [cat[name].resolution.module]
    while len(ps) < 3:
        p = random_semifree(env, rng, max_gens=2, shift_range=(-1, 1))
        if twisted(p):
            ps.append(p)
    iso = env_op_iso(a)
    for p in ps:
        for side in ("first", "second"):
            r = restrict_to_factor(p, a, aop, side)
            assert r.algebra is (a if side == "first" else aop)
            assert_module(r)
        t = transport_module(p, iso)
        assert t.algebra is iso.target
        assert_module(t)


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_resolution_modules_are_modules(cat, name):
    """The shipped resolutions and the enveloping ones built from them by
    the opposite and tensor combinators."""
    ent = cat[name]
    for r in (ent.resolution, ent.enveloping_resolution()):
        assert_module(r.module)


def test_trusted_paths_equal_checked_paths_end_to_end(monkeypatch, capsys):
    """The pinned CLI batches give the same bytes with each of the three
    trusted paths taken away: `DgAlgebra.built` becomes the checked
    constructor, `built_module` validates what it builds, and a sampler
    draw loses its `drawn_from` mark, so every builder output meets the
    checks of caller data.  The catalog is rebuilt cold under the patches,
    so its algebras and resolutions are built through them too.  A new
    trusted path must be taken away here as well."""
    ran = dict.fromkeys(("algebra", "module"), 0)

    def checked(kind, make):
        def run(*args):
            ran[kind] += 1
            return make(*args)
        return run

    monkeypatch.setattr(DgAlgebra, "built", classmethod(
        lambda cls, *args: checked("algebra", cls)(*args)))

    def validated_module(algebra, shifts, twist_columns, idempotent_columns=None):
        m = SemiFreeModule.from_columns(algebra, shifts, twist_columns).validate()
        e = (None if idempotent_columns is None
             else ModuleMap.from_columns(m, m, 0, idempotent_columns).validate())
        return PerfectModule(m, e)

    binders = [mod for mod in list(sys.modules.values())
               if getattr(mod, "built_module", None) is modules.built_module]
    assert {"dgtrace.modules", "dgtrace.duality",
            "dgtrace.resolutions"} <= {mod.__name__ for mod in binders}
    for mod in binders:
        monkeypatch.setattr(mod, "built_module",
                            checked("module", validated_module))
    draw = EndoSampler.draw

    def unmarked_draw(self, rng):
        f = draw(self, rng)
        f.drawn_from = None
        return f
    monkeypatch.setattr(EndoSampler, "draw", unmarked_draw)
    catalog_module = importlib.import_module("dgtrace.catalog")
    monkeypatch.setattr(catalog_module, "_CATALOG",
                        MappingProxyType(catalog_module.build_catalog()))
    for argv, digest in sorted(CLI_BATCH_SHA256.items()):
        assert main(argv.split()) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    assert all(ran.values()), ran
