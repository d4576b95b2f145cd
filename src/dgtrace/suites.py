"""Batched verification suites over the catalog, seeded and deterministic.

Each suite returns a structured summary that serializes identically across
runs with the same seed; the CLI and the acceptance tests are thin wrappers
around these functions.  Every boolean battery is a stream of verdicts
counted by one function, `_tally`, which consumes the whole stream: every
check runs after a failure, and every `ok` is read off the counts or off
the summaries the battery reports.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count as naturals, islice
from typing import Dict, Iterable, Iterator, List, Sequence

from .algebras import DgAlgebra, opposite, tensor_algebras
from .catalog import CatalogEntry, catalog, catalog_entry
from .complexes import chain_supertrace, euler_trace
from .duality import (DualBimodule, dualize, dualhom_check, hom_into_serre,
                      omega_contraction_dims, omega_inverse_module,
                      serre_module_data)
from .hochschild import euler_class, hh0_space, hh_class, hh_via_dualizing
from .linalg import ZERO
from .modules import PerfectModule, hom_over_algebra, projective_module
from .pairing import (KernelTransfer, PairingReport, cup, diagonal_class,
                      pair_scalar, pairing_three_ways, unit_algebra,
                      verify_kernel_composition, verify_rr, rr_left_side)
from .prng import stream_for
from .sampling import (random_closed_pair, random_coeff,
                       random_module_with_endos, random_perfect,
                       random_semifree)


def _algebra_tag(name: str) -> int:
    return sum(ord(c) * 31 ** i for i, c in enumerate(name)) % 100003


def _tally(verdicts: Iterable[bool]) -> Dict:
    """The number of verdicts, the number that hold and whether all do; the
    whole stream is consumed, so a check after a failure still runs."""
    checked = passed = 0
    for verdict in verdicts:
        checked += 1
        passed += bool(verdict)
    return {"checked": checked, "passed": passed, "ok": passed == checked}


def _seeded_class(space, rng):
    """A seeded combination of the basis classes of an HH_0 space, each
    coefficient a nonzero rational, so a check on it sees coefficients that
    a basis class (all 1) would not."""
    return space.class_of(space.representative(
        Fraction(random_coeff(rng) or 1, 1 + rng.below(3))
        for _ in range(space.dim)))


def rr_batch_layout(count: int):
    """(number of module pairs, draws per pair) for a batch of `count`."""
    pairs = max(1, min(20, count // 8))
    draws = (count + pairs - 1) // pairs
    return pairs, draws


def rr_pair_draws(entry: CatalogEntry, pi: int, first_idx: int, draws: int,
                  count: int, seed: int, sp, spo) -> Iterator[PairingReport]:
    """The reports of one module pair of the batch, one draw at a time;
    each pair owns an independent stream, so pairs can be computed in any
    order."""
    a = entry.algebra
    rng = stream_for(seed, _algebra_tag(entry.name) * 1000 + pi)
    max_gens = 3 if a.dim > 6 else 4
    m, ms = random_module_with_endos(a, rng, entry.idempotents,
                                     max_gens=max_gens)
    n, ns = random_module_with_endos(opposite(a), rng, entry.idempotents,
                                     max_gens=max_gens)
    for idx in range(first_idx, min(first_idx + draws, count)):
        f = ms.draw(rng)
        g = ns.draw(rng)
        yield verify_rr(m, f, n, g, instance=f"{entry.name}#{idx}", seed=seed,
                        space_op=spo, space=sp)


def rr_pair_reports(entry: CatalogEntry, pi: int, first_idx: int, draws: int,
                    count: int, seed: int, sp, spo) -> List[PairingReport]:
    """rr_pair_draws as a list (one op of the benchmark)."""
    return list(rr_pair_draws(entry, pi, first_idx, draws, count, seed, sp, spo))


def rr_suite(entry: CatalogEntry, count: int, seed: int) -> Iterator[PairingReport]:
    """Randomized main-theorem batch over one catalog algebra, yielded one
    report at a time.

    Module pairs are drawn first (each with its solved space of closed
    endomorphisms), then endomorphism pairs; `count` instances total.
    """
    a = entry.algebra
    sp, spo = hh0_space(a), hh0_space(opposite(a))
    npairs, draws = rr_batch_layout(count)
    for pi in range(npairs):
        yield from rr_pair_draws(entry, pi, pi * draws, draws, count, seed,
                                 sp, spo)


def rr_tally(entry: CatalogEntry, count: int, seed: int) -> Dict:
    """rr_suite's instance and pass counts and its failing reports; a
    passing report is dropped as soon as it is counted."""
    checked, failures = 0, []
    for r in rr_suite(entry, count, seed):
        checked += 1
        if not r.equal:
            failures.append(r.to_dict())
    return {"checked": checked, "passed": checked - len(failures),
            "failures": failures}


def euler_formula_suite(count: int, seed: int) -> Dict:
    """chain supertrace == euler trace for random closed endomorphisms of
    random complexes (restrictions of random semi-free modules), four per
    sampled module."""
    entries = [catalog_entry(n) for n in ("k", "kxk", "A2")]

    def verdicts():
        for idx in naturals():
            ent = entries[idx % len(entries)]
            rng = stream_for(seed, 7000 + idx)
            m, sampler = random_module_with_endos(ent.algebra, rng,
                                                  ent.idempotents, max_gens=3,
                                                  shift_range=(-1, 1))
            for _ in range(4):
                chain = sampler.draw(rng).restrict()
                yield chain_supertrace(chain) == euler_trace(chain)
    return _tally(islice(verdicts(), count))


def conjugation_suite(count: int, seed: int) -> Dict:
    """hh(g . h) == hh(h . g) for random closed pairs."""
    names = ("k", "kxk", "M2", "A2", "A3", "Kronecker")

    def commutes(idx):
        a = catalog_entry(names[idx % len(names)]).algebra
        sp = hh0_space(a)
        rng = stream_for(seed, 9000 + idx)
        m, n, g, h = random_closed_pair(a, rng, max_gens=3, shift_range=(-1, 1))
        # g . h is an endomorphism of n, h . g one of m
        return (hh_class(n, g.compose(h), sp).coords
                == hh_class(m, h.compose(g), sp).coords)
    return _tally(map(commutes, range(count)))


def hh_description_suite() -> Dict:
    """dim HH_0 = dim A/[A,A] against the degree-0 dimension of the dual
    description, all catalog algebras; higher dims vanish for the
    hereditary quiver algebras."""
    results = {}
    hereditary = {"A2", "A3", "Kronecker"}
    for name, ent in catalog().items():
        dims = hh_via_dualizing(ent.algebra, ent.resolution)
        want0 = hh0_space(ent.algebra).dim
        higher = ([d for p, d in dims.dims.items() if p != 0]
                  if name in hereditary else [])
        results[name] = {"hh_dims": {str(p): d for p, d in dims.dims.items()},
                         "hh0": want0,
                         "ok": dims.dim(0) == want0 and not any(higher)}
    return {"per_algebra": results,
            "ok": _tally(r["ok"] for r in results.values())["ok"]}


def duality_suite(count: int, seed: int) -> Dict:
    """Double dual exactness, the dual-Hom comparison, the dualizing-pair
    contraction and the Serre dimension identity."""
    names = ("A2", "M2", "kxk", "A3", "Kronecker")

    def double_dual(i):  # D . D = id on random semi-free modules
        ent = catalog_entry(names[i % len(names)])
        rng = stream_for(seed, 11000 + i)
        p = random_perfect(ent.algebra, rng, ent.idempotents, max_gens=4)
        return dualize(dualize(p)) == p

    def dual_hom(i):  # the dual-Hom comparison on random plain pairs
        ent = catalog_entry(names[i % len(names)])
        rng = stream_for(seed, 12000 + i)
        n = random_semifree(ent.algebra, rng, max_gens=3, shift_range=(-1, 1))
        m = random_semifree(ent.algebra, rng, max_gens=3, shift_range=(-1, 1))
        return dualhom_check(PerfectModule(n.module), PerfectModule(m.module)).quasi_iso

    dd_ok = _tally(map(double_dual, range(max(10, count // 5))))["ok"]
    dh = _tally(map(dual_hom, range(count)))
    # omega contraction and Serre identity per catalog algebra
    contraction = {}
    serre = {}
    for name, ent in catalog().items():
        a = ent.algebra
        omega_inv = omega_inverse_module(a, ent.resolution.module)
        dims = omega_contraction_dims(a, omega_inv, "dual_first")
        contraction[name] = {"dims": {str(p): d for p, d in dims.dims.items()},
                             "ok": dims == a.cohomology_dims()}
        dual = DualBimodule(a)
        projs = [projective_module(a, a.basis_element(i))
                 for i in ent.idempotents]
        serre_data = [(y, serre_module_data(a, y, dual)) for y in projs]
        serre[name] = {"ok": _tally(
            hom_over_algebra(y, x).cohomology_dims().dim(0)
            == hom_into_serre(x, data).cohomology_dims().dim(0)
            for y, data in serre_data for x in projs)["ok"]}
    flags = [dd_ok, dh["ok"]] + [s["ok"] for s in (*contraction.values(),
                                                   *serre.values())]
    return {"double_dual_exact": dd_ok,
            "dualhom_quasi_iso": {"checked": dh["checked"], "passed": dh["passed"]},
            "contraction": contraction, "serre": serre,
            "ok": _tally(flags)["ok"]}


def pairing_coherence_suite(seed: int) -> Dict:
    """Three pairing constructions on a full basis of HH_0(A^op) x HH_0(A)
    and on seeded combinations, the unit law of the contraction, the
    transfer-vs-cup identity on random kernels, and well-definedness of the
    scalar pairing."""
    results = {}
    kalg = unit_algebra()
    for idx, (name, ent) in enumerate(catalog().items()):
        a = ent.algebra
        sp, spo = hh0_space(a), hh0_space(opposite(a))
        env_res = ent.enveloping_resolution()
        cache: Dict = {}
        coeffs = stream_for(seed, 16000 + idx)
        combos = [(_seeded_class(spo, coeffs), _seeded_class(sp, coeffs))
                  for _ in range(2)]
        pairs = [(lam, mu) for lam in spo.basis_classes()
                 for mu in sp.basis_classes()] + combos
        three_ok = _tally(
            s1 == s2 == s3 for s1, s2, s3 in
            (pairing_three_ways(a, ent.resolution, lam, mu, env_res, cache)
             for lam, mu in pairs))["ok"]
        # unit law: hh(A) cup_A lam = lam over A (x) k^op
        sp_ak = hh0_space(tensor_algebras(a, opposite(kalg)))
        dclass = diagonal_class(ent.resolution)
        unit_ok = _tally(cup(dclass, lam, a, kalg, ent.resolution) == lam
                         for lam in sp_ak.basis_classes())["ok"]
        # well-definedness: commutator shifts do not move the pairing
        basis = [a.basis_element(i) for i in range(a.dim)]
        comms = [c for c in (ei * ej - ej * ei for ei in basis for ej in basis)
                 if not c.is_zero()]

        def well_defined():  # nothing to shift by when A is commutative
            if not comms:
                return
            for lam in spo.basis_classes()[:2]:
                for mu in sp.basis_classes()[:2]:
                    base = pair_scalar(lam, mu)
                    for comm in comms:
                        shifted = sp.class_of(mu.representative + comm)
                        yield shifted.coords == mu.coords
                        yield pair_scalar(lam, shifted) == base
        flags = {"three_ways": three_ok, "unit_law": unit_ok,
                 "well_defined": _tally(well_defined())["ok"]}
        results[name] = dict(flags, ok=_tally(flags.values())["ok"])

    def transfer_vs_cup():  # on random kernels, against the diagonal classes
        a2 = catalog_entry("A2").algebra
        for i, name in enumerate(("M2", "A2", "A3")):
            ent = catalog_entry(name)
            b = ent.algebra
            ab = tensor_algebras(a2, opposite(b))
            bk = tensor_algebras(b, opposite(kalg))
            sp_bk, sp_b = hh0_space(bk), hh0_space(b)
            rng = stream_for(seed, 15000 + i)
            coeffs = stream_for(seed, 16500 + i)
            for _ in range(2):
                kern = random_perfect(ab, rng, idempotents=(), max_gens=3,
                                      shift_range=(-1, 1))
                tr = KernelTransfer(kern, a2, b)
                hh_k_class = euler_class(kern)
                for lam_b in sp_b.basis_classes() + (_seeded_class(sp_b, coeffs),):
                    lam = sp_bk.class_of(bk.element(lam_b.representative.coords))
                    rhs = cup(hh_k_class, lam, a2, kalg, ent.resolution)
                    yield tr.apply(lam_b).coords == rhs.coords
    action_ok = _tally(transfer_vs_cup())["ok"]
    flags = [r["ok"] for r in results.values()] + [action_ok]
    return {"per_algebra": results, "transfer_vs_cup": action_ok,
            "ok": _tally(flags)["ok"]}


def adapt_suite(seed: int) -> Dict:
    """hh_k(A (x)_{eA} M, id (x) f) = hh_{A^e}(A) cup hh_{eA}(M, f) for three
    random perfect modules M over ^eA, for A each of k, kxk, M2 and A2."""
    kalg = unit_algebra()

    def verdicts():
        for name in ("k", "kxk", "M2", "A2"):
            ent = catalog_entry(name)
            a = ent.algebra
            ea = tensor_algebras(opposite(a), a)
            bk = tensor_algebras(ea, opposite(kalg))
            env_res = ent.enveloping_resolution()
            dclass = diagonal_class(ent.resolution)
            diag_as_right = ent.resolution.module  # over A^e = opposite(eA)
            for i in range(3):
                rng = stream_for(seed, 17000 + 100 * _algebra_tag(name) + i)
                m, sampler = random_module_with_endos(ea, rng, (), max_gens=2,
                                                      shift_range=(-1, 1))
                f = sampler.draw(rng)
                lam = hh_class(m, f)
                lhs = rr_left_side(diag_as_right, None, lam.representative)
                lam_bk = hh0_space(bk).class_of(
                    bk.element(lam.representative.coords))
                rhs_class = cup(dclass, lam_bk, kalg, kalg, env_res)
                yield lhs == (rhs_class.coords[0] if rhs_class.coords else ZERO)
    return _tally(verdicts())


def kernel_composition_suite(count: int, seed: int) -> Dict:
    """Class equality for composed kernels over the arrow-free B in M2,
    kxk, k with A = C = k, whose resolutions have one shift-0 generator per
    vertex and no twist; `compose_kernels` itself takes every catalog B."""
    kalg = unit_algebra()
    combos = [(kalg, catalog_entry(bname), kalg) for bname in ("M2", "kxk", "k")]

    def composes(i):
        a_alg, ent_b, c_alg = combos[i % len(combos)]
        b = ent_b.algebra
        ab = tensor_algebras(a_alg, opposite(b))
        bc = tensor_algebras(b, opposite(c_alg))
        rng = stream_for(seed, 19000 + i)
        k1 = random_perfect(ab, rng, idempotents=(), max_gens=2,
                            shift_range=(-1, 1))
        k2 = random_perfect(bc, rng, idempotents=(), max_gens=2,
                            shift_range=(-1, 1))
        return verify_kernel_composition(k1, k2, a_alg, c_alg,
                                         ent_b.resolution,
                                         instance=f"{ent_b.name}#{i}",
                                         seed=seed).equal
    return _tally(map(composes, range(count)))


def cartan_oracle(a: DgAlgebra, idems: Sequence[int]) -> List[List[int]]:
    """dim e_i A e_j for the listed idempotents, independent of the
    pairing: the basis elements x with e_i x e_j = x, counted through the
    dense `multiply`."""
    unit = [a.basis_element(x).coords for x in range(a.dim)]
    return [[sum(a.multiply(a.multiply(unit[i], ex), unit[j]) == ex
                 for ex in unit) for j in idems] for i in idems]


def cartan_tables() -> Dict:
    """Pairing tables over the quiver algebras against the independent
    basis-enumeration oracle dim e_i A e_j."""
    out = {}
    for name in ("A2", "A3", "Kronecker"):
        ent = catalog_entry(name)
        a = ent.algebra
        aop = opposite(a)
        sp, spo = hh0_space(a), hh0_space(aop)
        idems = ent.idempotents
        table = [[pair_scalar(spo.class_of(aop.basis_element(i)),
                              sp.class_of(a.basis_element(j))) for j in idems]
                 for i in idems]
        out[name] = {"table": [[str(x) for x in row] for row in table],
                     "ok": table == cartan_oracle(a, idems)}
    return {"per_algebra": out,
            "ok": _tally(r["ok"] for r in out.values())["ok"]}


def full_suite(count: int, seed: int) -> Dict:
    """Everything, sized by `count`; the structure of the returned summary
    is fixed so reports are byte-identical for a fixed seed."""
    rr = {}
    for name, ent in catalog().items():
        tally = rr_tally(ent, count, seed)
        rr[name] = {"checked": tally["checked"], "passed": tally["passed"]}
    summary = {
        "main_theorem": {"per_algebra": rr, "ok": _tally(
            r["passed"] == r["checked"] for r in rr.values())["ok"]},
        "euler_formula": euler_formula_suite(max(20, count), seed),
        "conjugation": conjugation_suite(max(20, count), seed),
        "hh_descriptions": hh_description_suite(),
        "duality": duality_suite(max(10, count // 4), seed),
        "pairing_coherence": pairing_coherence_suite(seed),
        "adapt": adapt_suite(seed),
        "kernel_composition": kernel_composition_suite(max(20, count // 10), seed),
        "cartan": cartan_tables(),
    }
    summary["ok"] = _tally(s["ok"] for s in summary.values())["ok"]
    summary.update(seed=seed, count=count)
    return summary
