"""Calculus that the tests use as independent references and that no command
of the package runs: the k-level tensor, Hom and linear dual of matrix
complexes, the module shift M[n], the Kunneth map on HH_0, the dense
scan of a dg algebra's axioms, and e f e by two full products.

Each is built from the package's own keyed assemblers, so a test that
compares it with a realization (`tensor_over_algebra`, `hom_over_algebra`,
`dualize`, ...) checks the realization's bases, signs and differentials
against the conventions of `dgtrace.complexes` applied directly."""

from typing import Dict, List, Mapping, Sequence

from dgtrace.algebras import DgAlgebra, pure_tensor, tensor_algebras
from dgtrace.complexes import (Complex, key_columns, keyed_columns,
                               keyed_complex, keyed_dual, positions)
from dgtrace.errors import (AssociativityViolation, DifferentialSquareViolation,
                            LeibnizViolation, UnitViolation)
from dgtrace.hochschild import HochschildClass, hh0_space
from dgtrace.modules import (ModuleMap, PerfectModule, _scale_columns,
                             built_module)


def graded_keys(c: Complex) -> Dict[int, List]:
    """The keyed basis of a complex: (p, j) for basis vector j of c^p."""
    return {p: [(p, j) for j in range(c.dim(p))] for p in c.degrees()}


def _pair_keys(ka: Mapping[int, Sequence], kb: Mapping[int, Sequence],
               sign: int) -> Dict[int, List]:
    """Keyed basis (u, w) of a (x) b (sign 1, degree p + q) or Hom(a, b)
    (sign -1, degree q - p) for u in a^p, w in b^q: p ascending, u major."""
    basis: Dict[int, List] = {}
    for p, us in ka.items():
        for q, ws in kb.items():
            basis.setdefault(q + sign * p, []).extend((u, w) for u in us for w in ws)
    return basis


def _keyed_complex(basis: Dict[int, List], image) -> Complex:
    pos = positions(basis)
    return keyed_complex(basis, pos, keyed_columns(basis, pos, 1, image))


def tensor(a: Complex, b: Complex) -> Complex:
    """a (x) b with d(v (x) w) = dv (x) w + (-1)^{|v|} v (x) dw."""
    ka, kb = graded_keys(a), graded_keys(b)
    da, db = key_columns(a.d, 1, ka, ka), key_columns(b.d, 1, kb, kb)

    def image(key):
        u, w = key
        sgn = -1 if u[0] % 2 else 1
        return ([((u2, w), c) for u2, c in da[u]]
                + [((u, w2), sgn * c) for w2, c in db[w]])
    return _keyed_complex(_pair_keys(ka, kb, 1), image)


def hom_complex(a: Complex, b: Complex) -> Complex:
    """Hom(a, b) with d(f) = d_b . f - (-1)^{|f|} f . d_a.

    Degree-n component is the product over p of Hom(a^p, b^{p+n}); its closed
    degree-0 elements are exactly the chain maps a -> b.  Basis (u, w): the
    map sending u to w, source key major.
    """
    ka, kb = graded_keys(a), graded_keys(b)
    db = key_columns(b.d, 1, kb, kb)
    da_rows: Dict[object, List] = {}  # u -> [(u2, c)]: c = coefficient of u in d_a(u2)
    for u2, terms in key_columns(a.d, 1, ka, ka).items():
        for u, c in terms:
            da_rows.setdefault(u, []).append((u2, c))

    def image(key):
        u, w = key
        sgn = -1 if (w[0] - u[0]) % 2 else 1
        return ([((u, w2), c) for w2, c in db[w]]
                + [((u2, w), -sgn * c) for u2, c in da_rows.get(u, ())])
    return _keyed_complex(_pair_keys(ka, kb, -1), image)


def linear_dual(c: Complex) -> Complex:
    """c^* with (c^*)^p = (c^{-p})^* and differential -(-1)^p (d^{-p-1})^T,
    the keyed transpose of `keyed_dual` on the graded keys of c.

    This is Hom(c, unit) on the nose, including basis order.
    """
    keys = graded_keys(c)
    basis, cols = keyed_dual(keys, {k: dict(terms) for k, terms in
                                    key_columns(c.d, 1, keys, keys).items()})
    return keyed_complex(basis, positions(basis), cols)


def shift_module(p: PerfectModule, n: int) -> PerfectModule:
    """p[n]: shifts raised by n, twist scaled by (-1)^n."""
    m = p.module
    tw = m.twist_columns if n % 2 == 0 else _scale_columns(m.twist_columns, -1)
    return built_module(m.algebra, [s + n for s in m.shifts], tw,
                        None if p.idempotent is None else p.idempotent.columns)


def compressed(p: PerfectModule, f: ModuleMap) -> ModuleMap:
    """e . f . e through two `ModuleMap.compose` products, the reference for
    `PerfectModule.compress`; f itself when p has no idempotent."""
    e = p.idempotent
    return f if e is None else e.compose(f).compose(e)


def kunneth(x: HochschildClass, y: HochschildClass) -> HochschildClass:
    """[u] (x) [v] -> [u (x) v] in HH_0(A (x) B)."""
    product = tensor_algebras(x.algebra, y.algebra)
    return hh0_space(product).class_of(product.element(
        pure_tensor(x.representative.coords, y.representative.coords)))


def dense_validate(a: DgAlgebra) -> DgAlgebra:
    """The reference for `DgAlgebra.validate`: the same checks in the same
    order, each product a dense `multiply` of coordinate vectors."""
    n = a.dim
    basis = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    for i, e in enumerate(basis):
        if a.multiply(a.unit, e) != e:
            raise UnitViolation(i, "left")
        if a.multiply(e, a.unit) != e:
            raise UnitViolation(i, "right")
    prod = {(i, j): a.multiply(basis[i], basis[j]) for i in range(n) for j in range(n)}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (a.multiply(prod[(i, j)], basis[k])
                        != a.multiply(basis[i], prod[(j, k)])):
                    raise AssociativityViolation(i, j, k)
    for i in range(n):
        sign = -1 if a.degrees[i] % 2 else 1
        for j in range(n):
            da_b = a.multiply(a.differential(basis[i]), basis[j])
            a_db = a.multiply(basis[i], a.differential(basis[j]))
            if a.differential(prod[(i, j)]) != tuple(
                    x + sign * y for x, y in zip(da_b, a_db)):
                raise LeibnizViolation(i, j)
    for i in range(n):
        if any(a.differential(a.differential(basis[i]))):
            raise DifferentialSquareViolation(f"on {a.labels[i]}")
    return a
