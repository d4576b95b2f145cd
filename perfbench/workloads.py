"""The benchmark's workloads: seeded lists of ops over dgtrace's public API.

An op is one unit of checked work.  `Workload(name, seed)` builds the op
list (cheap: no dgtrace computation happens before the first op), and
`Workload.run(i)` runs op `i` and returns `(ok, canonical)`: whether the
op's exact check held, and a canonical string of its results that the
reference digests are taken over.  Every op draws from its own stream, so
op `i` gives the same result whether it runs inside the whole list or alone.

dgtrace's layer functions are reached through module attributes
(`suites.rr_pair_reports`), so a tracer that patches those attributes sees
every call made from here.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Dict, List, Tuple

from dgtrace import algebras, duality, hochschild, modules, pairing, prng
from dgtrace import sampling, suites
from dgtrace.catalog import catalog

# main_theorem: instances per algebra, each with its own module pair (one
# draw per pair), so a run samples many module shapes; enough that the
# op-time percentiles hold still from seed to seed
RR_COUNT = 180
# pairing_coherence: random class pairs per catalog algebra; the first op of
# an algebra fills its caches, and the first A2xA2 op (its trace table) is
# most of a pass.  Steady A2xA2 ops take ~0.5 s each, so it gets fewer.  The
# op times cluster by algebra; the counts put the median op in the middle
# of the Kronecker cluster and p90 inside M2's, not at a gap between two.
PAIRS_PER_ALGEBRA = 20
PAIRS = {"k": 12, "kxk": 12, "A2xA2": 5}
# duality_serre: seeded dual-Hom checks on random semi-free pairs, the
# random half of verify-serre; enough that the op-time percentiles hold
# still from seed to seed
DUALHOM_COUNT = 1000
DOUBLE_DUAL_COUNT = max(10, DUALHOM_COUNT // 5)
# the algebras of duality_suite's random checks, in its order
DUALITY_NAMES = ("A2", "M2", "kxk", "A3", "Kronecker")
HEREDITARY = ("A2", "A3", "Kronecker")

WORKLOADS = ("main_theorem", "pairing_coherence", "duality_serre")


def _op_seed(seed: int, *key) -> int:
    """The 64-bit seed of one op: a hash of the workload seed and the op's
    key.  dgtrace's `stream_for(seed, index)` streams of one seed all start
    from the same root word, so ops seeded that way need not be independent
    draws; a hashed seed per op makes them so."""
    digest = hashlib.sha256(repr((seed,) + key).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _dims(space) -> str:
    return ",".join(f"{p}:{d}" for p, d in sorted(space.dims.items()))


def _random_class(space, rng) -> "hochschild.HochschildClass":
    """A seeded combination of the space's basis classes with nonzero
    rational coefficients, so no op degenerates to a zero class."""
    total = None
    for cls in space.basis_classes():
        num = sampling.random_coeff(rng) or Fraction(1)
        den = 1 + rng.below(3)
        term = cls.scale(num / den)
        total = term if total is None else total + term
    return total


def _interleave(*groups) -> list:
    """Merge the groups, each spread evenly over the result in its own order,
    so ops of every kind are sampled over the whole run."""
    keyed = [((k + 0.5) / len(group), g, item)
             for g, group in enumerate(groups) for k, item in enumerate(group)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


class Workload:
    """The op list of one workload at one seed, plus per-run caches."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.entries = catalog()
        self._ctx: Dict[str, dict] = {}
        if name == "main_theorem":
            self.specs = _interleave(*([(alg, pi) for pi in range(RR_COUNT)]
                                       for alg in self.entries))
        elif name == "pairing_coherence":
            self.specs = _interleave(*(
                [(alg, j) for j in range(PAIRS.get(alg, PAIRS_PER_ALGEBRA))]
                for alg in self.entries))
        else:
            self.specs = _interleave(
                [("double_dual", i) for i in range(DOUBLE_DUAL_COUNT)],
                [("dualhom", i) for i in range(DUALHOM_COUNT)],
                [(kind, alg) for kind in ("contraction", "serre",
                                          "hh_descriptions")
                 for alg in self.entries])

    def __len__(self) -> int:
        return len(self.specs)

    def run(self, i: int) -> Tuple[bool, str]:
        kind, arg = self.specs[i]
        if self.name == "main_theorem":
            return self._main_theorem(kind, arg)
        if self.name == "pairing_coherence":
            return self._pairing(kind, arg)
        return getattr(self, "_" + kind)(arg)

    # -- main_theorem -------------------------------------------------------

    def _main_theorem(self, alg: str, pi: int) -> Tuple[bool, str]:
        ent = self.entries[alg]
        ctx = self._ctx.get(alg)
        if ctx is None:  # the spaces verify-rr builds once per algebra
            ctx = self._ctx[alg] = {
                "sp": hochschild.hh0_space(ent.algebra),
                "spo": hochschild.hh0_space(algebras.opposite(ent.algebra))}
        reports = suites.rr_pair_reports(ent, pi, pi, 1, RR_COUNT,
                                         _op_seed(self.seed, alg, pi),
                                         ctx["sp"], ctx["spo"])
        ok = bool(reports) and all(r.lhs == r.rhs for r in reports)
        canon = ";".join(f"{r.instance}={_frac(r.lhs)}|{_frac(r.rhs)}"
                         for r in reports)
        return ok, canon

    # -- pairing_coherence --------------------------------------------------

    def _pairing(self, alg: str, j: int) -> Tuple[bool, str]:
        ent = self.entries[alg]
        ctx = self._ctx.get(alg)
        if ctx is None:  # one cache dict per algebra per run
            a = ent.algebra
            ctx = self._ctx[alg] = {
                "sp": hochschild.hh0_space(a),
                "spo": hochschild.hh0_space(algebras.opposite(a)),
                "env_res": ent.enveloping_resolution(),
                "cache": {}}
        rng = prng.stream_for(_op_seed(self.seed, alg, j), 0)
        lam = _random_class(ctx["spo"], rng)
        mu = _random_class(ctx["sp"], rng)
        s1, s2, s3 = pairing.pairing_three_ways(ent.algebra, ent.resolution,
                                                lam, mu, ctx["env_res"],
                                                ctx["cache"])
        canon = f"{alg}#{j}:{_frac(s1)}|{_frac(s2)}|{_frac(s3)}"
        return s1 == s2 == s3, canon

    # -- duality_serre ------------------------------------------------------

    def _double_dual(self, i: int) -> Tuple[bool, str]:
        name = DUALITY_NAMES[i % len(DUALITY_NAMES)]
        ent = self.entries[name]
        rng = prng.stream_for(_op_seed(self.seed, "double_dual", i), 0)
        p = sampling.random_perfect(ent.algebra, rng, ent.idempotents,
                                    max_gens=4)
        d = duality.dualize(p)
        ok = duality.dualize(d) == p
        tag = "+e" if p.idempotent is not None else ""
        return ok, f"dd{i}:{name}:{list(p.shifts)}{tag}->{list(d.shifts)}"

    def _dualhom(self, i: int) -> Tuple[bool, str]:
        name = DUALITY_NAMES[i % len(DUALITY_NAMES)]
        a = self.entries[name].algebra
        rng = prng.stream_for(_op_seed(self.seed, "dualhom", i), 0)
        n = sampling.random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
        m = sampling.random_semifree(a, rng, max_gens=3, shift_range=(-1, 1))
        rep = duality.dualhom_check(modules.PerfectModule(n.module),
                                    modules.PerfectModule(m.module))
        canon = (f"dh{i}:{name}:{_dims(rep.lhs_dims)}|{_dims(rep.rhs_dims)}"
                 f"|{rep.quasi_iso}")
        return bool(rep.quasi_iso), canon

    def _contraction(self, alg: str) -> Tuple[bool, str]:
        ent = self.entries[alg]
        a = ent.algebra
        omega_inv = duality.omega_inverse_module(a, ent.resolution.module)
        dims = duality.omega_contraction_dims(a, omega_inv, "dual_first")
        want = a.cohomology_dims()
        return dims == want, f"contraction:{alg}:{_dims(dims)}|{_dims(want)}"

    def _serre(self, alg: str) -> Tuple[bool, str]:
        ent = self.entries[alg]
        a = ent.algebra
        dual = duality.DualBimodule(a)
        projs = [modules.projective_module(a, a.basis_element(i))
                 for i in ent.idempotents]
        ok = True
        cells: List[str] = []
        for y in projs:
            data = duality.serre_module_data(a, y, dual)
            for x in projs:
                lhs = modules.hom_over_algebra(y, x).cohomology_dims().dim(0)
                rhs = duality.hom_into_serre(x, data).cohomology_dims().dim(0)
                ok = ok and lhs == rhs
                cells.append(f"{lhs}|{rhs}")
        return ok, f"serre:{alg}:{','.join(cells)}"

    def _hh_descriptions(self, alg: str) -> Tuple[bool, str]:
        ent = self.entries[alg]
        dims = hochschild.hh_via_dualizing(ent.algebra, ent.resolution)
        want0 = hochschild.hh0_space(ent.algebra).dim
        ok = dims.dim(0) == want0
        if alg in HEREDITARY:
            ok = ok and all(d == 0 for p, d in dims.dims.items() if p != 0)
        return ok, f"hh:{alg}:{_dims(dims)}|{want0}"
