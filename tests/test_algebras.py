import json
from fractions import Fraction

import pytest

from dgtrace.algebras import (AlgebraIso, DgAlgebra, env_op_iso,
                              opposite, swap_iso, tensor_algebras,
                              validate_algebra)
from dgtrace.errors import (AlgebraMismatch, AssociativityViolation,
                            DifferentialSquareViolation, LeibnizViolation,
                            UnitViolation, ValidationError)
from dgtrace.prng import stream_for
from dgtrace.workspace import parse_workspace
from oracles import dense_validate
from test_sparse_oracles import exterior_algebra_xy, square_zero_dg_algebra

F = Fraction
ONE = F(1)


def test_ground_field_valid(kfield):
    assert kfield.dim == 1
    assert kfield.is_degree_zero()


def test_a2_structure(a2):
    assert a2.dim == 3
    e1, e2, al = (a2.by_label(l) for l in ("e1", "e2", "a"))
    assert (e1 * al) == al
    assert (al * e2) == al
    assert (al * e1).is_zero()
    assert (e2 * al).is_zero()
    assert (al * al).is_zero()


def test_m2_structure(m2):
    E11 = m2.by_label("E11")
    E12 = m2.by_label("E12")
    E21 = m2.by_label("E21")
    assert (E12 * E21) == E11
    assert (E12 * E12).is_zero()


def test_associativity_violation_reported():
    mult = {(0, 1): ((1, ONE),), (1, 0): ((0, ONE),),
            (0, 0): ((0, ONE),), (1, 1): ((0, ONE),)}
    with pytest.raises((AssociativityViolation, UnitViolation)):
        validate_algebra(["u", "v"], [0, 0], mult, [ONE, F(0)])


def test_leibniz_violation_reported():
    # d(x) = y with x odd would need signs; break the rule on purpose
    mult = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),)}
    diff = {1: ((0, ONE),)}  # d of a degree-1 element landing in degree 0
    with pytest.raises(Exception):
        validate_algebra(["1", "x"], [0, 1], mult, [ONE, F(0)], diff)


def test_opposite_involution(a2, m2, a3):
    for a in (a2, m2, a3):
        assert opposite(opposite(a)) is a


def test_tensor_algebras_is_memoised(cat):
    algebras = [ent.algebra for ent in cat.values()]
    for x in algebras:
        for y in (x, opposite(x), algebras[0]):
            assert tensor_algebras(x, y) is tensor_algebras(x, y)
    a2 = cat["A2"].algebra
    # keyed by instance: a structurally equal copy gets its own product
    copy = DgAlgebra(a2.labels, a2.degrees, a2.mult, a2.unit)
    assert tensor_algebras(a2, copy) is not tensor_algebras(a2, a2)
    assert tensor_algebras(a2, copy) == tensor_algebras(a2, a2)


def test_rows_reindex_mult(cat):
    """rows[i][j] is mult[(i, j)], every product with left factor e_i in
    rows[i] and no other, on each catalog algebra, its opposite, and its
    square and enveloping algebras."""
    for ent in cat.values():
        a = ent.algebra
        for b in (a, opposite(a), tensor_algebras(a, a),
                  tensor_algebras(a, opposite(a)), tensor_algebras(opposite(a), a)):
            assert len(b.rows) == b.dim
            assert {(i, j): vec for i, row in enumerate(b.rows)
                    for j, vec in row.items()} == b.mult


def test_rows_built_on_first_product(a2):
    """A fresh algebra holds no row table; its first product builds it
    once, and later reads get the same table."""
    fresh = DgAlgebra(a2.labels, a2.degrees, a2.mult, a2.unit)
    assert "rows" not in vars(fresh)
    out = [0] * fresh.dim
    fresh.add_product(out, ((0, 1),), ((2, 1),))
    assert out == [0, 0, 1]  # e1 * a = a
    rows = vars(fresh)["rows"]
    assert rows is not None and fresh.rows is rows


def test_arithmetic_across_algebras_raises(cat):
    a2, a3 = cat["A2"].algebra, cat["A3"].algebra
    x, y = a2.by_label("e1"), a3.by_label("e1")
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(AlgebraMismatch):
            op(x, y)
    # a structurally equal algebra is the same algebra
    copy = DgAlgebra(a2.labels, a2.degrees, a2.mult, a2.unit)
    assert x + copy.by_label("e2") == a2.one()


def test_opposite_k_is_k(kfield):
    assert opposite(kfield).same_structure(kfield)


def test_opposite_m2_isomorphic_via_transpose(m2):
    op = opposite(m2)
    # transpose E_ij -> E_ji is an isomorphism M2 -> M2^op
    perm = [0, 2, 1, 3]
    AlgebraIso(m2, op, perm).check()


def test_opposite_a2_is_reversed_quiver(a2):
    op = opposite(a2)
    op.validate()
    e1, e2, al = (op.by_label(l) for l in ("e1", "e2", "a"))
    # the arrow now composes on the other side
    assert (e2 * al) == al
    assert (al * e1) == al


def test_tensor_unit_law(a2, kfield):
    t = tensor_algebras(kfield, a2)
    assert t.same_structure(a2)


def test_tensor_dims(a2):
    from dgtrace.resolutions import path_algebra
    t = tensor_algebras(a2, path_algebra(["e1", "e2"], []))
    assert t.dim == 6
    t.validate()


def test_tensor_m2_a2_valid(m2, a2):
    tensor_algebras(m2, a2).validate()


def test_enveloping_dims(a2, kfield):
    ae, ea = tensor_algebras(a2, opposite(a2)), tensor_algebras(opposite(a2), a2)
    assert ae.dim == 9 and ea.dim == 9
    ae.validate()
    ea.validate()
    k_ae = tensor_algebras(kfield, opposite(kfield))
    k_ea = tensor_algebras(opposite(kfield), kfield)
    assert k_ae.same_structure(kfield)
    assert k_ea.same_structure(kfield)


def test_swap_iso_between_envelopings(a2):
    swap_iso(a2, opposite(a2), tensor_algebras(opposite(a2), a2)).check()


def test_env_op_iso(a2, m2):
    env_op_iso(a2).check()
    env_op_iso(m2).check()


def test_catalog_all_valid_and_proper(cat):
    for name, ent in cat.items():
        ent.algebra.validate()
        dims = ent.algebra.cohomology_dims()
        assert dims.total_dim() == ent.algebra.dim  # degree 0, zero differential


def test_catalog_resolutions_validate(cat):
    for name, ent in cat.items():
        ent.resolution.validate()


def test_graded_algebra_accepted():
    # exterior algebra on one odd generator: 1, x with |x| = -1, d = 0
    mult = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),)}
    a = validate_algebra(["1", "x"], [0, -1], mult, [ONE, F(0)])
    assert not a.is_degree_zero()
    assert a.cohomology_dims().dims == {-1: 1, 0: 1}
    op = opposite(a)
    op.validate()
    # x .op x = -x x = 0 either way; the sign shows on odd pairs
    assert opposite(op).same_structure(a)


def test_dg_algebra_with_differential():
    # two-term dg algebra: unit in degree 0, x in degree -1... use the dual
    # numbers with d(x) = 0 vs a genuine differential: k[x]/(x^2), |x| = -1,
    # d(x) = 1 fails Leibniz/degree; instead take |x| = -1, y = d(x) in 0?
    # Simplest valid: square-zero extension with acyclic generator:
    # basis 1 (deg 0), x (deg -1), y (deg 0); xy = yx = 0, x^2 = 0, y^2 = 0,
    # d(x) = y, d(y) = 0.
    mult = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),),
            (0, 2): ((2, ONE),), (2, 0): ((2, ONE),)}
    diff = {1: ((2, ONE),)}
    a = validate_algebra(["1", "x", "y"], [0, -1, 0], mult, [ONE, F(0), F(0)],
                         diff)
    assert a.cohomology_dims().dims == {0: 1}
    tensor_algebras(a, a).validate()


def test_repeated_basis_indices_merge(a2):
    mult = dict(a2.mult)
    mult[(0, 0)] = ((0, F(2)), (0, F(-1)))  # e1 e1 = 2 e1 - e1
    mult[(0, 2)] = ((2, ONE), (1, F(3)), (1, F(-3)))  # a cancelling pair
    b = DgAlgebra(a2.labels, a2.degrees, mult, a2.unit)
    assert b.mult[(0, 0)] == ((0, ONE),)
    assert b.mult[(0, 2)] == ((2, ONE),)
    assert b == a2 and a2.same_structure(b)
    # the differential is merged the same way
    dg = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),),
          (0, 2): ((2, ONE),), (2, 0): ((2, ONE),)}
    x = validate_algebra(["1", "x", "y"], [0, -1, 0], dg, [ONE, F(0), F(0)],
                         {1: ((2, ONE),)})
    y = validate_algebra(["1", "x", "y"], [0, -1, 0], dg, [ONE, F(0), F(0)],
                         {1: ((2, F(2)), (2, F(-1))), 2: ((0, F(0)),)})
    assert y.diff == {1: ((2, ONE),)} and x == y
    # a workspace mult list with two quadruples for one (i, j, k)
    ws = parse_workspace(json.dumps({"format": 1, "algebras": {"A2": {
        "basis": [{"label": "e1", "degree": 0}, {"label": "e2", "degree": 0},
                  {"label": "a", "degree": 0}],
        "mult": [[0, 0, 0, "2"], [1, 1, 1, "1"], [0, 2, 2, "1"],
                 [2, 1, 2, "1"], [0, 0, 0, "-1"]],
        "unit": ["1", "1", "0"]}}}))
    assert ws.algebras["A2"] == a2


def test_opposite_is_memoised(cat):
    # 1, x, y, z with |x| = |y| = 1 and xy = z: the opposite has
    # y .op x = -z, so the Koszul sign shows
    odd = validate_algebra(
        ["1", "x", "y", "z"], [0, 1, 1, 2],
        {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),),
         (0, 2): ((2, ONE),), (2, 0): ((2, ONE),), (0, 3): ((3, ONE),),
         (3, 0): ((3, ONE),), (1, 2): ((3, ONE),)}, [ONE, F(0), F(0), F(0)])
    for a in [ent.algebra for ent in cat.values()] + [odd]:
        op = opposite(a)
        assert opposite(a) is op
        # a fresh build from the structure constants
        mult = {(j, i): tuple((k, (-1) ** (a.degrees[i] * a.degrees[j]) * c)
                              for k, c in vec) for (i, j), vec in a.mult.items()}
        fresh = DgAlgebra(a.labels, a.degrees, mult, a.unit, a.diff)
        assert (op.labels, op.degrees, op.mult, op.unit, op.diff) == (
            fresh.labels, fresh.degrees, fresh.mult, fresh.unit, fresh.diff)
    assert opposite(odd).mult[(2, 1)] == ((3, -ONE),)


# -- the trusted builder and the linear arithmetic ---------------------------

def _square_zero_dg_algebra():
    """1, x, y with |x| = -1, d(x) = y (test_dg_algebra_with_differential)."""
    mult = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),),
            (0, 2): ((2, ONE),), (2, 0): ((2, ONE),)}
    return validate_algebra(["1", "x", "y"], [0, -1, 0], mult,
                            [ONE, F(0), F(0)], {1: ((2, ONE),)})


def _derived_algebras(cat):
    """(name, algebra) for every catalog algebra A, its opposite, ^eA, and
    the products ^eA (x) k^op and k (x) (^eA)^op of the pairing's cup; then a
    dg algebra G with a differential, its opposite, G (x) G, whose
    differential has terms from both factors and whose odd factors
    anticommute, its opposite and G (x) G^op."""
    k = cat["k"].algebra
    for name, ent in cat.items():
        a = ent.algebra
        ea = tensor_algebras(opposite(a), a)
        yield from ((name, a), (f"{name}^op", opposite(a)), (f"^e{name}", ea),
                    (f"^e{name}(x)k^op", tensor_algebras(ea, opposite(k))),
                    (f"k(x)(^e{name})^op", tensor_algebras(k, opposite(ea))))
    g = _square_zero_dg_algebra()
    gg = tensor_algebras(g, g)
    yield from (("G", g), ("G^op", opposite(g)), ("G(x)G", gg),
                ("(G(x)G)^op", opposite(gg)), ("G(x)G^op", tensor_algebras(g, opposite(g))))


def _stored(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_built_algebras_are_in_the_public_constructors_normal_form(cat):
    """`opposite` and `_tensor` build through `DgAlgebra.built`, which
    normalises nothing: their tables equal the public constructor's
    normalisation of the same data, every coefficient and unit coordinate
    is in stored form, and each small one is a dg algebra."""
    for name, b in _derived_algebras(cat):
        again = DgAlgebra(b.labels, b.degrees, b.mult, b.unit, b.diff)
        assert again.mult == b.mult and again.diff == b.diff, name
        assert again.unit == b.unit and again.degrees == b.degrees, name
        coeffs = [c for vec in (*b.mult.values(), *b.diff.values()) for _, c in vec]
        assert all(map(_stored, coeffs + list(b.unit))), name
        if b.dim <= 9:
            b.validate()


def _random_coords(rng, n):
    """Half the coordinates zero, the rest small rationals of either sign."""
    return tuple(F(rng.below(9) - 4, 1 + rng.below(3)) if rng.below(2) else F(0)
                 for _ in range(n))


def test_linear_arithmetic_matches_a_dense_reference(cat):
    """scale (by 0 too), +, - and unary - read nonzero coordinates only and
    return through the `AlgebraElement` constructor: they equal the
    coordinatewise arithmetic, cancelling sums included, and every output
    coordinate is a Fraction."""
    rng = stream_for(37, 0)
    for ent in cat.values():
        a = ent.algebra
        for _ in range(12):
            u, v = _random_coords(rng, a.dim), _random_coords(rng, a.dim)
            x, y = a.element(u), a.element(v)
            partly = a.element(tuple(-c if rng.below(2) else c for c in u))
            c = F(rng.below(9) - 4, 1 + rng.below(3))
            cases = [
                (x.scale(c), [c * p for p in u]),
                (x.scale(0), [F(0)] * a.dim),
                (x.scale(F(0)), [F(0)] * a.dim),
                (x.scale(-2), [-2 * p for p in u]),
                (x + y, [p + q for p, q in zip(u, v)]),
                (x - y, [p - q for p, q in zip(u, v)]),
                (-x, [-p for p in u]),
                (x + -x, [F(0)] * a.dim),
                (x - x, [F(0)] * a.dim),
                (x + partly, [p + q for p, q in zip(u, partly.coords)]),
            ]
            for got, want in cases:
                assert got.coords == tuple(want)
                assert got.algebra is a
                assert all(type(p) is Fraction for p in got.coords)
            assert (x + -x).is_zero() and (x - x) == a.zero()


def _square_zero_chain():
    """1, x, y, z in degrees 0, -2, -1, 0 with every product of two
    non-units zero and d(x) = y, d(y) = z: Leibniz holds, d^2 does not."""
    mult = {(0, k): ((k, ONE),) for k in range(4)}
    mult.update({(k, 0): ((k, ONE),) for k in range(1, 4)})
    return DgAlgebra(["1", "x", "y", "z"], [0, -2, -1, 0], mult,
                     [ONE, F(0), F(0), F(0)], {1: ((2, ONE),), 2: ((3, ONE),)})


def _perturbed(a, rng):
    """a's tables with one seeded change that keeps every degree: a product
    redrawn in its degree, unit coordinates of degree 0 redrawn, or a term
    added to a differential."""
    mult, unit, diff = dict(a.mult), list(a.unit), dict(a.diff)
    of_degree = {}
    for k, d in enumerate(a.degrees):
        of_degree.setdefault(d, []).append(k)
    i, j = rng.below(a.dim), rng.below(a.dim)
    kind = rng.below(3)
    if kind == 0:
        mult[(i, j)] = tuple((k, rng.int_in(-1, 2)) for k in
                             of_degree.get(a.degrees[i] + a.degrees[j], ())
                             if rng.below(2))
    elif kind == 1:
        unit = [rng.int_in(-1, 1) if d == 0 and rng.below(2) else c
                for c, d in zip(unit, a.degrees)]
    else:
        targets = of_degree.get(a.degrees[i] + 1, ())
        if targets:
            diff[i] = diff.get(i, ()) + ((targets[rng.below(len(targets))], ONE),)
    return DgAlgebra(a.labels, a.degrees, mult, unit, diff)


def _verdict(check, a):
    try:
        check(a)
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


def test_validate_matches_the_dense_scan(cat, monkeypatch):
    """`validate` reads `add_product` and `rows` and skips the triples whose
    products vanish by the table's support.  On seeded perturbations of the
    catalog algebras and of dg algebras with odd elements and a
    differential, it raises the same error on the same first tuple as the
    dense scan of `oracles.dense_validate`, or passes with it, and it never
    calls `multiply`."""
    def refuse(*args):
        raise AssertionError("validate called multiply")
    bases = ([ent.algebra for ent in cat.values()]
             + [exterior_algebra_xy(), square_zero_dg_algebra(), _square_zero_chain()])
    kinds = set()
    for index, base in enumerate(bases):
        rng = stream_for(71, index)
        for a in [base] + [_perturbed(base, rng) for _ in range(30)]:
            want = _verdict(dense_validate, a)
            with monkeypatch.context() as patched:
                patched.setattr(DgAlgebra, "multiply", refuse)
                assert _verdict(DgAlgebra.validate, a) == want, a.labels
            kinds.add(want and want[0])
    assert kinds == {None, UnitViolation, AssociativityViolation,
                     LeibnizViolation, DifferentialSquareViolation}
