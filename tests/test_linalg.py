from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dgtrace.algebras import opposite
from dgtrace.complexes import cone
from dgtrace.errors import DimensionMismatch
from dgtrace.linalg import (RationalMatrix, SubspacePresentation,
                            echelon_basis, quotient_presentation,
                            rank_kernel_image, rank_of, rref, solve,
                            solve_matrix, solved_kernel, span_dim)
from dgtrace.modules import (ExplicitModule, ModuleMap, cone_module,
                             free_module, hom_over_algebra,
                             tensor_over_algebra)
from dgtrace.prng import SplitMix64
from dgtrace.sampling import random_closed_pair, random_perfect
from test_sparse_oracles import is_stored_scalar

F = Fraction


def mat(rows):
    return RationalMatrix.from_rows(rows)


def test_empty_matrix():
    r, ker, img = rank_kernel_image(RationalMatrix.zeros(0, 0))
    assert r == 0 and ker.dim == 0 and img.dim == 0


def test_identity():
    r, ker, img = rank_kernel_image(RationalMatrix.identity(2))
    assert r == 2 and ker.dim == 0 and img.dim == 2


def test_rank_one():
    m = mat([[1, 2], [2, 4]])
    r, ker, img = rank_kernel_image(m)
    assert r == 1
    assert ker.dim == 1
    # kernel spanned by a multiple of (2, -1)
    v = ker.basis[0]
    assert v[0] * F(-1) == v[1] * F(2)
    assert m.apply(v) == (F(0), F(0))


def test_post_conditions_random_shapes():
    m = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r, ker, img = rank_kernel_image(m)
    assert r + ker.dim == 3
    assert img.dim == r
    for v in ker.basis:
        assert all(x == 0 for x in m.apply(v))


def test_solved_kernel_matches_the_dense_kernel_basis():
    """The solved form is read off the RREF: the free columns are the
    non-pivot ones, and pivot row r gives x_p = sum_f -R[r][f] x_f.  Each
    vector of its basis readout is the nonzero part of the dense kernel
    vector, and both are the free-column vectors of the RREF: 1 at the free
    column f, -R[r][f] at the pivot column of each row r."""
    rng = SplitMix64(29)
    shapes = [RationalMatrix.zeros(0, 3)]
    for _ in range(40):
        rows, cols = 1 + rng.below(5), 1 + rng.below(7)
        shapes.append(mat([[rng.int_in(-2, 2) * rng.below(2) for _ in range(cols)]
                           for _ in range(rows)]))
    vectors = 0
    for m in shapes:
        red, pivots = rref(m)
        reference = []
        for f in range(m.cols):
            if f not in pivots:
                v = [F(0)] * m.cols
                v[f] = F(1)
                for r, p in enumerate(pivots):
                    v[p] = -red.entries[r][f]
                reference.append(tuple((c, x) for c, x in enumerate(v) if x))
        kernel = solved_kernel(map(dict, map(enumerate, m.entries)), m.cols)
        assert kernel.free == tuple(f for f in range(m.cols) if f not in pivots)
        assert kernel.pivots == tuple(
            (p, {f: -red.entries[r][f] for f in kernel.free if red.entries[r][f]})
            for r, p in enumerate(pivots))
        dense = rank_kernel_image(m)[1].basis
        assert kernel.basis() == reference == [
            tuple((c, x) for c, x in enumerate(v) if x) for v in dense]
        vectors += len(reference)
    assert vectors > 40


def test_solve_identity():
    b = (F(3), F(-7))
    assert solve(RationalMatrix.identity(2), b) == b


def test_solve_underdetermined():
    m = mat([[1, 1]])
    x = solve(m, (F(3),))
    assert x is not None and x[0] + x[1] == 3


def test_solve_inconsistent():
    m = mat([[1], [2]])
    assert solve(m, (F(1), F(3))) is None


def test_quotient_trivial_sub():
    proj, section = quotient_presentation(3, SubspacePresentation(3, ()))
    assert proj == RationalMatrix.identity(3)


def test_quotient_full_sub():
    basis = tuple(RationalMatrix.identity(3).column(j) for j in range(3))
    proj, section = quotient_presentation(3, SubspacePresentation(3, basis))
    assert proj.rows == 0 and proj.cols == 3


def test_quotient_kills_sub():
    sub = SubspacePresentation(3, ((F(0), F(0), F(1)),))
    proj, section = quotient_presentation(3, sub)
    assert proj.rows == 2
    assert proj.apply((F(0), F(0), F(5))) == (F(0), F(0))
    assert proj @ section == RationalMatrix.identity(2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_rank_equals_transpose_rank(rows):
    m = mat(rows)
    assert rank_of(m) == rank_of(m.transpose())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_solve_then_multiply_is_exact(rows, bvec):
    m = mat(rows)
    b = tuple(F(x) for x in bvec)
    x = solve(m, b)
    if x is not None:
        assert m.apply(x) == b


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=2, max_size=4))
def test_quotient_of_kernel_annihilates(rows):
    m = mat(rows)
    _, ker, _ = rank_kernel_image(m)
    proj, _ = quotient_presentation(m.cols, ker)
    for v in ker.basis:
        assert all(x == 0 for x in proj.apply(v))


def test_span_dim_matches_rank():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert span_dim([tuple(F(x) for x in r) for r in rows], 3) == 2


def test_from_columns_rejects_malformed_columns():
    with pytest.raises(DimensionMismatch):
        RationalMatrix.from_columns([[1, 2], [3, 4, 5]])  # longer later column
    with pytest.raises(DimensionMismatch):
        RationalMatrix.from_columns([[1, 2], [3]])  # shorter later column
    with pytest.raises(DimensionMismatch):
        RationalMatrix.from_columns([[1, 2], [3, 4]], nrows=3)
    assert RationalMatrix.from_columns([], nrows=2) == RationalMatrix.zeros(2, 0)


def test_equal_matrices_compare_and_hash_equal_however_built():
    """Equality and hashing see the values, not how a matrix was built: a
    dense grid with explicit zeros, sparse columns, a product with the
    identity, and every way of reaching the zero matrix."""
    grid = [[F(0), F(2), F(0)], [F(-1), F(0), F(1, 3)]]
    m = RationalMatrix(2, 3, grid)
    same = [RationalMatrix.from_rows([[0, 2, 0], [-1, 0, F(1, 3)]]),
            RationalMatrix.from_sparse_columns(2, [{1: F(-1)}, {0: F(2)}, {1: F(1, 3)}]),
            RationalMatrix.from_sparse_columns(2, [{0: F(0), 1: F(-1)}, {0: F(2)},
                                                   {1: F(1, 3)}]),
            RationalMatrix.from_columns([[0, -1], [2, 0], [0, F(1, 3)]]),
            m @ RationalMatrix.identity(3),
            RationalMatrix.identity(2) @ m,
            m.transpose().transpose(),
            m.scale(1)]
    zero = RationalMatrix.zeros(2, 3)
    zeros = [RationalMatrix(2, 3, [[F(0)] * 3, [F(0)] * 3]),
             RationalMatrix.from_sparse_columns(2, [{0: F(0)}, {}, {1: F(0)}]),
             m + (-m), m - m, m.scale(0), m.scale(-1) + m,
             RationalMatrix.zeros(2, 2) @ m]
    for x in same:
        assert x == m and hash(x) == hash(m) and not x.is_zero()
    for x in zeros:
        assert x == zero and hash(x) == hash(zero) and x.is_zero()
    assert len(set(same) | {m}) == 1 and len(set(zeros) | {zero}) == 1
    assert m != zero and zero != RationalMatrix.zeros(3, 2)
    assert m != RationalMatrix.from_rows([[0, 2, 0], [-1, 0, F(1, 2)]])
    for x in same + zeros + [m.scale(3), m.transpose() @ m]:
        assert all(v for column in x.sparse_columns() for v in column.values())
        assert RationalMatrix(x.rows, x.cols, x.entries) == x


def test_echelon_rejects_vectors_of_wrong_length():
    with pytest.raises(DimensionMismatch):
        span_dim([[F(0), F(0), F(1)]], 2)
    with pytest.raises(DimensionMismatch):
        echelon_basis([[F(1), F(0)], [F(1)]], 2)
    with pytest.raises(DimensionMismatch):
        solve(RationalMatrix.identity(2), (F(1),))


# -- sympy oracle for the entry points test_linalg_sympy.py does not cover --

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7),
          (7, 6)]


def random_matrix(rng, rows, cols):
    """Sparse-ish random rationals: about half the entries are zero."""
    return RationalMatrix(rows, cols, [
        [F(rng.int_in(-4, 4), rng.int_in(1, 3)) if rng.below(2) else F(0)
         for _ in range(cols)] for _ in range(rows)])


def cases(rng):
    """Random matrices of every shape, full rank and rank deficient."""
    for rows, cols in SHAPES:
        yield random_matrix(rng, rows, cols)
        for rank in range(1, min(rows, cols)):
            yield random_matrix(rng, rows, rank) @ random_matrix(rng, rank, cols)


def sym(m: RationalMatrix):
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in m.entries for x in row])


def frac_rows(s):
    return [tuple(F(int(x.p), int(x.q)) for x in s.row(i)) for i in range(s.rows)]


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_solve_matrix_matches_sympy(seed):
    """The solution with free variables zero, as sympy's Gauss-Jordan solve
    gives it with every parameter set to zero."""
    rng = SplitMix64(seed)
    for m in cases(rng):
        rhs = m @ random_matrix(rng, m.cols, 3)
        x = solve_matrix(m, rhs)
        if m.rows and m.cols:
            sol, params = sym(m).gauss_jordan_solve(sym(rhs))
            want = sol.subs({t: 0 for t in params})
            assert x == RationalMatrix(m.cols, 3, frac_rows(want))
        assert m @ x == rhs


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_solve_matrix_inconsistent_last_column(seed):
    rng = SplitMix64(seed)
    for m in cases(rng):
        rank = rank_of(m)
        if rank == m.rows:
            continue  # every right-hand side is consistent
        good = (m @ random_matrix(rng, m.cols, 2)).columns()
        bad = next(v for v in RationalMatrix.identity(m.rows).columns()
                   if sym(m).row_join(sympy.Matrix(v)).rank() > rank)
        rhs = RationalMatrix.from_columns(good + [bad], nrows=m.rows)
        with pytest.raises(ValueError):
            sym(m).gauss_jordan_solve(sym(rhs))
        assert solve_matrix(m, rhs) is None
        assert solve_matrix(m, RationalMatrix.from_columns(good, nrows=m.rows)) is not None


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_echelon_basis_rank_span_match_sympy(seed):
    rng = SplitMix64(seed)
    for m in cases(rng):
        s = sym(m)
        s_red, s_pivots = s.rref()
        nonzero = frac_rows(s_red)[:len(s_pivots)]
        assert echelon_basis(m.entries, m.cols) == nonzero
        assert rank_of(m) == s.rank() == len(s_pivots)
        assert span_dim(list(m.entries), m.cols) == s.rank()
        assert span_dim(m.columns(), m.rows) == s.rank()


def _scaled_row(rng, cols):
    """+-2 or +-3 times an integer row whose first nonzero is 1: its int
    pivot divides every entry."""
    p = rng.below(cols)
    row = [0] * p + [1] + [rng.int_in(-3, 3) for _ in range(cols - p - 1)]
    scale = rng.int_in(2, 3) * (1 - 2 * rng.below(2))
    return [scale * x for x in row]


def pivot_cases(rng):
    """Per shape: rows of `_scaled_row`, so the first pivot row and some
    later ones are divided exactly; plain integer rows, whose pivots may
    not divide them; rationals."""
    for rows, cols in SHAPES:
        yield RationalMatrix(rows, cols, [_scaled_row(rng, cols) for _ in range(rows)]
                             if cols else [[] for _ in range(rows)])
        yield RationalMatrix(rows, cols, [[rng.int_in(-6, 6) for _ in range(cols)]
                                          for _ in range(rows)])
        yield random_matrix(rng, rows, cols)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_integral_and_fractional_pivots_give_sympys_rref_in_stored_form(seed):
    """A new pivot row is divided exactly where an int pivot divides an int
    entry and as a Fraction elsewhere: the RREF equals sympy's, and every
    value of the solved kernel is in stored form."""
    rng = SplitMix64(seed)
    for m in pivot_cases(rng):
        red, pivots = rref(m)
        if m.rows and m.cols:
            s_red, s_pivots = sym(m).rref()
            assert red == RationalMatrix(m.rows, m.cols, frac_rows(s_red))
            assert pivots == list(s_pivots)
        kernel = solved_kernel([dict(enumerate(r)) for r in m.entries], m.cols)
        assert all(map(is_stored_scalar,
                       (x for _, row in kernel.pivots for x in row.values())))


def _all_fractions(values):
    assert all(type(x) is Fraction for x in values)


def _entries(m: RationalMatrix):
    return (x for row in m.entries for x in row)


def test_public_values_are_fractions():
    """Integer input is converted at the boundary; every value the public
    functions return is a Fraction."""
    ints = [[1, 2, 0, 3], [2, 4, 0, 6], [0, 1, 1, 0]]
    m = RationalMatrix.from_rows(ints)
    _all_fractions(_entries(m))
    _all_fractions(_entries(RationalMatrix.from_columns(ints)))
    red, _ = rref(m)
    _all_fractions(_entries(red))
    _, ker, img = rank_kernel_image(m)
    _all_fractions(x for v in ker.basis + img.basis for x in v)
    _all_fractions(solve(m, (1, 2, 0)))
    _all_fractions(_entries(solve_matrix(m, RationalMatrix.from_rows([[1], [2], [5]]))))
    proj, section = quotient_presentation(4, ker)
    _all_fractions(list(_entries(proj)) + list(_entries(section)))
    _all_fractions(x for v in echelon_basis(ints, 4) for x in v)
    _all_fractions(_entries(m.transpose() @ m.scale(3) + m.transpose() @ m))
    # zeros read off the stored rows with a default must be Fractions too
    _all_fractions(m.column(2) + m.column(3))
    _all_fractions(x for v in m.columns() for x in v)
    _all_fractions(m.apply((1, 0, 2, 0)) + m.apply((0, 0, 0, 0)))
    _all_fractions([(m.transpose() @ m).trace(), RationalMatrix.zeros(3, 3).trace(),
                    RationalMatrix.zeros(0, 0).trace()])
    _all_fractions(_entries(RationalMatrix.identity(3)))
    _all_fractions(_entries(RationalMatrix.zeros(2, 3)))


def test_realizations_hold_fractions(cat):
    """Module realizations build their blocks with the unconverting
    constructor; every entry must still be a Fraction."""
    mats = []
    for ent in cat.values():
        ex = ExplicitModule.from_semifree(ent.resolution.module.module)
        mats += ex.carrier.diff.values()
    rng = SplitMix64(8)
    for name in ("A2", "Kronecker"):
        ent = cat[name]
        aop = opposite(ent.algebra)
        m = random_perfect(ent.algebra, rng, ent.idempotents, max_gens=3)
        n = random_perfect(aop, rng, ent.idempotents, max_gens=3)
        for split in (tensor_over_algebra(n, m), hom_over_algebra(m, m)):
            mats += split.carrier.diff.values()
            if split.projector is not None:
                mats += split.projector.blocks.values()
        _, _, g, _ = random_closed_pair(ent.algebra, rng)
        cm = cone_module(g)
        mats += cm.module.to_explicit().carrier.diff.values()
        mats += cone(g.restrict()).diff.values()
    a2 = cat["A2"].algebra
    mats += ModuleMap.identity(free_module(a2, [0, 1]).module).restrict().blocks.values()
    assert mats
    for mat in mats:
        _all_fractions(_entries(mat))
