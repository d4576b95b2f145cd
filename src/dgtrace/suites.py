"""Batched verification suites over the catalog, seeded and deterministic.

Each suite returns a structured summary that serializes identically across
runs with the same seed; the CLI and the acceptance tests are thin wrappers
around these functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from .algebras import opposite, tensor_algebras
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
    random complexes (restrictions of random semi-free modules)."""
    passes = 0
    checked = 0
    entries = [catalog_entry(n) for n in ("k", "kxk", "A2")]
    idx = 0
    while checked < count:
        ent = entries[idx % len(entries)]
        rng = stream_for(seed, 7000 + idx)
        m, sampler = random_module_with_endos(ent.algebra, rng,
                                              ent.idempotents, max_gens=3,
                                              shift_range=(-1, 1))
        for _ in range(4):
            if checked >= count:
                break
            chain = sampler.draw(rng).restrict()
            lhs = chain_supertrace(chain)
            rhs = euler_trace(chain)
            checked += 1
            if lhs == rhs:
                passes += 1
        idx += 1
    return {"checked": checked, "passed": passes, "ok": passes == checked}


def conjugation_suite(count: int, seed: int) -> Dict:
    """hh(g . h) == hh(h . g) for random closed pairs."""
    names = ("k", "kxk", "M2", "A2", "A3", "Kronecker")
    passes = 0
    checked = 0
    idx = 0
    while checked < count:
        name = names[idx % len(names)]
        ent = catalog_entry(name)
        a = ent.algebra
        sp = hh0_space(a)
        rng = stream_for(seed, 9000 + idx)
        m, n, g, h = random_closed_pair(a, rng, max_gens=3, shift_range=(-1, 1))
        gh = g.compose(h)  # endo of n
        hg = h.compose(g)  # endo of m
        c1 = hh_class(n, gh, sp)
        c2 = hh_class(m, hg, sp)
        checked += 1
        if c1.coords == c2.coords:
            passes += 1
        idx += 1
    return {"checked": checked, "passed": passes, "ok": passes == checked}


def hh_description_suite() -> Dict:
    """dim HH_0 = dim A/[A,A] against the degree-0 dimension of the dual
    description, all catalog algebras; higher dims vanish for the
    hereditary quiver algebras."""
    results = {}
    ok = True
    hereditary = {"A2", "A3", "Kronecker"}
    for name, ent in catalog().items():
        dims = hh_via_dualizing(ent.algebra, ent.resolution)
        want0 = hh0_space(ent.algebra).dim
        good = dims.dim(0) == want0
        if name in hereditary:
            good = good and all(d == 0 for p, d in dims.dims.items() if p != 0)
        results[name] = {"hh_dims": {str(p): d for p, d in dims.dims.items()},
                         "hh0": want0, "ok": good}
        ok = ok and good
    return {"per_algebra": results, "ok": ok}


def duality_suite(count: int, seed: int) -> Dict:
    """Double dual exactness, the dual-Hom comparison, the dualizing-pair
    contraction and the Serre dimension identity."""
    # D . D = id on random semi-free modules
    dd_ok = True
    names = ("A2", "M2", "kxk", "A3", "Kronecker")
    for i in range(max(10, count // 5)):
        ent = catalog_entry(names[i % len(names)])
        rng = stream_for(seed, 11000 + i)
        p = random_perfect(ent.algebra, rng, ent.idempotents, max_gens=4)
        if dualize(dualize(p)) != p:
            dd_ok = False
    # dual-Hom comparison on random plain pairs
    dh_pass = 0
    for i in range(count):
        ent = catalog_entry(names[i % len(names)])
        rng = stream_for(seed, 12000 + i)
        n = random_semifree(ent.algebra, rng, max_gens=3, shift_range=(-1, 1))
        m = random_semifree(ent.algebra, rng, max_gens=3, shift_range=(-1, 1))
        rep = dualhom_check(PerfectModule(n.module), PerfectModule(m.module))
        if rep.quasi_iso:
            dh_pass += 1
    # omega contraction and Serre identity per catalog algebra
    contraction = {}
    serre = {}
    ok = dd_ok and dh_pass == count
    for name, ent in catalog().items():
        a = ent.algebra
        omega_inv = omega_inverse_module(a, ent.resolution.module)
        dims = omega_contraction_dims(a, omega_inv, "dual_first")
        want = a.cohomology_dims()
        good = dims == want
        contraction[name] = {"dims": {str(p): d for p, d in dims.dims.items()},
                             "ok": good}
        ok = ok and good
        pairs_ok = True
        dual = DualBimodule(a)
        projs = [projective_module(a, a.basis_element(i))
                 for i in ent.idempotents]
        for y in projs:
            data = serre_module_data(a, y, dual)
            for x in projs:
                lhs = hom_over_algebra(y, x).cohomology_dims().dim(0)
                rhs = hom_into_serre(x, data).cohomology_dims().dim(0)
                if lhs != rhs:
                    pairs_ok = False
        serre[name] = {"ok": pairs_ok}
        ok = ok and pairs_ok
    return {"double_dual_exact": dd_ok,
            "dualhom_quasi_iso": {"checked": count, "passed": dh_pass},
            "contraction": contraction, "serre": serre, "ok": ok}


def pairing_coherence_suite(seed: int) -> Dict:
    """Three pairing constructions on a full basis of HH_0(A^op) x HH_0(A)
    and on seeded combinations, the unit law of the contraction, the
    transfer-vs-cup identity on random kernels, and well-definedness of the
    scalar pairing."""
    results = {}
    ok = True
    kalg = unit_algebra()
    for idx, (name, ent) in enumerate(catalog().items()):
        a = ent.algebra
        aop = opposite(a)
        sp, spo = hh0_space(a), hh0_space(aop)
        env_res = ent.enveloping_resolution()
        cache: Dict = {}
        three_ok = True
        coeffs = stream_for(seed, 16000 + idx)
        combos = [(_seeded_class(spo, coeffs), _seeded_class(sp, coeffs))
                  for _ in range(2)]
        for lam, mu in [(lam, mu) for lam in spo.basis_classes()
                        for mu in sp.basis_classes()] + combos:
            s1, s2, s3 = pairing_three_ways(a, ent.resolution, lam, mu,
                                            env_res, cache)
            if not (s1 == s2 == s3):
                three_ok = False
        # unit law: hh(A) cup_A lam = lam over A (x) k^op
        sp_ak = hh0_space(tensor_algebras(a, opposite(kalg)))
        dclass = diagonal_class(ent.resolution)
        unit_ok = True
        for lam in sp_ak.basis_classes():
            val = cup(dclass, lam, a, a, kalg, ent.resolution)
            if val != lam:
                unit_ok = False
        # well-definedness: commutator shifts do not move the pairing
        well_ok = True
        basis_op = spo.basis_classes()
        basis_a = sp.basis_classes()
        n = a.dim
        for lam in basis_op[:2]:
            for mu in basis_a[:2]:
                base = pair_scalar(lam, mu)
                for i in range(n):
                    for j in range(n):
                        ei = a.basis_element(i)
                        ej = a.basis_element(j)
                        comm = ei * ej - ej * ei
                        if comm.is_zero():
                            continue
                        shifted = sp.class_of(mu.representative + comm)
                        if shifted.coords != mu.coords:
                            well_ok = False
                        if pair_scalar(lam, shifted) != base:
                            well_ok = False
        good = three_ok and unit_ok and well_ok
        results[name] = {"three_ways": three_ok, "unit_law": unit_ok,
                         "well_defined": well_ok, "ok": good}
        ok = ok and good
    # transfer equals cup against the diagonal classes on random kernels
    action_ok = True
    for i, name in enumerate(("M2", "A2", "A3")):
        ent = catalog_entry(name)
        b = ent.algebra
        a2 = catalog_entry("A2").algebra
        ab = tensor_algebras(a2, opposite(b))
        rng = stream_for(seed, 15000 + i)
        coeffs = stream_for(seed, 16500 + i)
        for _ in range(2):
            kern = random_perfect(ab, rng, idempotents=(), max_gens=3,
                                  shift_range=(-1, 1))
            tr = KernelTransfer(kern, a2, b)
            hh_k_class = euler_class(kern)
            bk = tensor_algebras(b, opposite(kalg))
            sp_bk = hh0_space(bk)
            sp_b = hh0_space(b)
            for lam_b in sp_b.basis_classes() + (_seeded_class(sp_b, coeffs),):
                lam = sp_bk.class_of(bk.element(lam_b.representative.coords))
                lhs = tr.apply(lam_b)
                rhs = cup(hh_k_class, lam, a2, b, kalg, ent.resolution)
                if lhs.coords != rhs.coords:
                    action_ok = False
    ok = ok and action_ok
    return {"per_algebra": results, "transfer_vs_cup": action_ok, "ok": ok}


def adapt_suite(seed: int, names: Tuple[str, ...] = ("k", "kxk", "M2", "A2"),
                per_algebra: int = 3) -> Dict:
    """hh_k(A (x)_{eA} M, id (x) f) = hh_{A^e}(A) cup hh_{eA}(M, f) for
    random perfect modules over the enveloping algebra."""
    kalg = unit_algebra()
    passes = 0
    checked = 0
    for name in names:
        ent = catalog_entry(name)
        a = ent.algebra
        ea = tensor_algebras(opposite(a), a)
        env_res = ent.enveloping_resolution()
        dclass = diagonal_class(ent.resolution)
        diag_as_right = ent.resolution.module  # over A^e = opposite(eA)
        for i in range(per_algebra):
            rng = stream_for(seed, 17000 + 100 * _algebra_tag(name) + i)
            m, sampler = random_module_with_endos(ea, rng, (), max_gens=2,
                                                  shift_range=(-1, 1))
            f = sampler.draw(rng)
            lhs = rr_left_side(diag_as_right, m, None, f)
            lam = hh_class(m, f)
            bk = tensor_algebras(ea, opposite(kalg))
            lam_bk = hh0_space(bk).class_of(
                bk.element(lam.representative.coords))
            rhs_class = cup(dclass, lam_bk, kalg, ea, kalg, env_res)
            rhs = rhs_class.coords[0] if rhs_class.coords else ZERO
            checked += 1
            if lhs == rhs:
                passes += 1
    return {"checked": checked, "passed": passes, "ok": passes == checked}


def kernel_composition_suite(count: int, seed: int) -> Dict:
    """Class equality for composed kernels over separable middle algebras."""
    kalg = unit_algebra()
    combos = [(kalg, catalog_entry(bname), kalg) for bname in ("M2", "kxk", "k")]
    passes = 0
    checked = 0
    i = 0
    while checked < count:
        a_alg, ent_b, c_alg = combos[i % len(combos)]
        b = ent_b.algebra
        ab = tensor_algebras(a_alg, opposite(b))
        bc = tensor_algebras(b, opposite(c_alg))
        rng = stream_for(seed, 19000 + i)
        k1 = random_perfect(ab, rng, idempotents=(), max_gens=2,
                            shift_range=(-1, 1))
        k2 = random_perfect(bc, rng, idempotents=(), max_gens=2,
                            shift_range=(-1, 1))
        rep = verify_kernel_composition(k1, k2, a_alg, b, c_alg,
                                        ent_b.resolution,
                                        instance=f"{ent_b.name}#{i}", seed=seed)
        checked += 1
        if rep.equal:
            passes += 1
        i += 1
    return {"checked": checked, "passed": passes, "ok": passes == checked}


def cartan_tables() -> Dict:
    """Pairing tables over the quiver algebras against the independent
    basis-enumeration oracle dim e_i A e_j."""
    out = {}
    ok = True
    for name in ("A2", "A3", "Kronecker"):
        ent = catalog_entry(name)
        a = ent.algebra
        aop = opposite(a)
        sp, spo = hh0_space(a), hh0_space(aop)
        table = []
        oracle = []
        for i in ent.idempotents:
            row = []
            orow = []
            for j in ent.idempotents:
                lam = spo.class_of(aop.basis_element(i))
                mu = sp.class_of(a.basis_element(j))
                row.append(pair_scalar(lam, mu))
                # independent oracle: count basis elements x = e_i x e_j
                ei = tuple(Fraction(1) if t == i else ZERO for t in range(a.dim))
                ej = tuple(Fraction(1) if t == j else ZERO for t in range(a.dim))
                cnt = 0
                for x in range(a.dim):
                    ex = tuple(Fraction(1) if t == x else ZERO
                               for t in range(a.dim))
                    if a.multiply(a.multiply(ei, ex), ej) == ex:
                        cnt += 1
                orow.append(Fraction(cnt))
            table.append(row)
            oracle.append(orow)
        good = table == oracle
        out[name] = {"table": [[str(x) for x in row] for row in table],
                     "ok": good}
        ok = ok and good
    return {"per_algebra": out, "ok": ok}


def full_suite(count: int, seed: int) -> Dict:
    """Everything, sized by `count`; the structure of the returned summary
    is fixed so reports are byte-identical for a fixed seed."""
    rr = {}
    rr_ok = True
    for name, ent in catalog().items():
        tally = rr_tally(ent, count, seed)
        rr[name] = {"checked": tally["checked"], "passed": tally["passed"]}
        rr_ok = rr_ok and not tally["failures"]
    euler = euler_formula_suite(max(20, count), seed)
    conj = conjugation_suite(max(20, count), seed)
    descr = hh_description_suite()
    dual = duality_suite(max(10, count // 4), seed)
    coher = pairing_coherence_suite(seed)
    adapt = adapt_suite(seed)
    kc = kernel_composition_suite(max(20, count // 10), seed)
    cartan = cartan_tables()
    ok = (rr_ok and euler["ok"] and conj["ok"] and descr["ok"] and dual["ok"]
          and coher["ok"] and adapt["ok"] and kc["ok"] and cartan["ok"])
    return {
        "main_theorem": {"per_algebra": rr, "ok": rr_ok},
        "euler_formula": euler,
        "conjugation": conj,
        "hh_descriptions": descr,
        "duality": dual,
        "pairing_coherence": coher,
        "adapt": adapt,
        "kernel_composition": kc,
        "cartan": cartan,
        "ok": ok,
        "seed": seed,
        "count": count,
    }
