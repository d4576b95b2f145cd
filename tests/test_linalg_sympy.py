"""Differential tests of the exact linear algebra against sympy.Matrix on
seeded random rational matrices, rank-deficient and empty ones included."""

from fractions import Fraction

import pytest
import sympy

from dgtrace.linalg import (RationalMatrix, SubspacePresentation,
                            quotient_presentation, rank_kernel_image, rref,
                            solve)
from dgtrace.prng import SplitMix64

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7),
          (7, 6)]


def random_fraction(rng):
    return Fraction(rng.int_in(-4, 4), rng.int_in(1, 3))


def random_matrix(rng, rows, cols, rank=None):
    """Random entries, or a random product of rank at most `rank`."""
    if rank is None:
        return RationalMatrix(rows, cols, [[random_fraction(rng) for _ in range(cols)]
                                           for _ in range(rows)])
    left = random_matrix(rng, rows, rank)
    right = random_matrix(rng, rank, cols)
    if rank == 0:
        return RationalMatrix.zeros(rows, cols)
    return left @ right


def cases(seed):
    rng = SplitMix64(seed)
    for rows, cols in SHAPES:
        yield random_matrix(rng, rows, cols)
        yield RationalMatrix.zeros(rows, cols)
        for rank in range(min(rows, cols)):
            yield random_matrix(rng, rows, cols, rank)


def sym(m: RationalMatrix):
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in m.entries for x in row])


def col(vec):
    return sympy.Matrix(len(vec), 1,
                        [sympy.Rational(x.numerator, x.denominator) for x in vec])


def span_rank(vectors, dim):
    if not vectors:
        return 0
    return sympy.Matrix.hstack(*[col(v) for v in vectors]).rank() if dim else 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rref_rank_kernel_image_match_sympy(seed):
    for m in cases(seed):
        s = sym(m)
        red, pivots = rref(m)
        s_red, s_pivots = s.rref()
        assert tuple(pivots) == tuple(s_pivots)
        assert sym(red) == s_red
        rank, ker, img = rank_kernel_image(m)
        assert rank == s.rank()
        assert ker.dim == m.cols - rank and img.dim == rank
        # kernel: killed by m, independent, and the span of sympy's nullspace
        for v in ker.basis:
            assert s * col(v) == sympy.zeros(m.rows, 1)
        assert span_rank(ker.basis, m.cols) == ker.dim
        theirs = [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in s.nullspace()]
        assert span_rank(list(ker.basis) + theirs, m.cols) == ker.dim
        # image: independent columns spanning the column space
        assert span_rank(img.basis, m.rows) == rank
        if m.cols and m.rows:
            both = sympy.Matrix.hstack(s, *[col(v) for v in img.basis])
            assert both.rank() == rank


@pytest.mark.parametrize("seed", [4, 5])
def test_solve_matches_sympy(seed):
    rng = SplitMix64(seed)
    for m in cases(seed):
        s = sym(m)
        inside = m.apply(tuple(random_fraction(rng) for _ in range(m.cols)))
        generic = tuple(random_fraction(rng) for _ in range(m.rows))
        for b in (inside, generic):
            x = solve(m, b)
            consistent = (sympy.Matrix.hstack(s, col(b)).rank() == s.rank()
                          if m.rows else True)
            if x is None:
                assert not consistent
            else:
                assert consistent
                assert len(x) == m.cols
                assert s * col(x) == col(b)
        assert solve(m, inside) is not None


@pytest.mark.parametrize("seed", [6, 7])
def test_quotient_presentation_matches_sympy(seed):
    rng = SplitMix64(seed)
    for n in range(0, 7):
        for k in range(0, n + 1):
            gens = random_matrix(rng, n, k + 1, k) if n else RationalMatrix.zeros(0, 0)
            _, _, img = rank_kernel_image(gens)
            sub = SubspacePresentation(n, img.basis)
            proj, section = quotient_presentation(n, sub)
            q = n - sub.dim
            assert (proj.rows, proj.cols) == (q, n)
            assert (section.rows, section.cols) == (n, q)
            sp = sym(proj)
            if q:
                assert sp.rank() == q
                assert sp * sym(section) == sympy.eye(q)
            for v in sub.basis:
                assert sp * col(v) == sympy.zeros(q, 1)
            # the kernel of proj is exactly the subspace
            if n and q:
                kernel = sp.nullspace()
                assert len(kernel) == sub.dim
                vecs = [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in kernel]
                assert span_rank(vecs + list(sub.basis), n) == sub.dim


# -- matrix arithmetic: every operation on the stored rows against sympy --

def mostly_zero(rng, rows, cols):
    """About one entry in four is drawn (and may still be zero); the rest
    are explicit zeros of the dense grid."""
    return RationalMatrix(rows, cols, [
        [random_fraction(rng) if rng.below(4) == 0 else Fraction(0)
         for _ in range(cols)] for _ in range(rows)])


def rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def assert_no_stored_zero(m: RationalMatrix):
    assert all(x for column in m.sparse_columns() for x in column.values())


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_matrix_arithmetic_matches_sympy(seed):
    rng = SplitMix64(seed)
    for rows, cols in SHAPES:
        for _ in range(3):
            a, b = mostly_zero(rng, rows, cols), mostly_zero(rng, rows, cols)
            c = mostly_zero(rng, cols, 1 + rng.below(5))
            sa, sb, sc = sym(a), sym(b), sym(c)
            results = [a @ c, a + b, a - b, -a, a.transpose()]
            assert [sym(m) for m in results] == [sa * sc, sa + sb, sa - sb, -sa, sa.T]
            for k in (Fraction(0), Fraction(-1), Fraction(3, 2)):
                results.append(a.scale(k))
                assert sym(results[-1]) == sa * rational(k)
            for m in results:
                assert_no_stored_zero(m)
            v = tuple(random_fraction(rng) if rng.below(2) else Fraction(0)
                      for _ in range(cols))
            assert col(a.apply(v)) == sa * col(v)
            if rows == cols:
                assert rational(a.trace()) == sa.trace()
            assert a.is_zero() == sa.is_zero_matrix
            assert [col(a.column(j)) for j in range(cols)] == [sa[:, j] for j in range(cols)]
            assert [col(v) for v in a.columns()] == [sa[:, j] for j in range(cols)]
            sparse = a.sparse_columns()
            assert sparse == [{i: Fraction(int(sa[i, j].p), int(sa[i, j].q))
                               for i in range(rows) if sa[i, j]} for j in range(cols)]
            assert all(list(column) == sorted(column) for column in sparse)
            assert RationalMatrix.from_sparse_columns(rows, sparse) == a


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_products_and_sums_that_cancel(seed):
    """Results whose entries cancel to zero hold no zero and equal the zero
    matrix: a + (-a), a - a, a times its kernel, and l r - l r."""
    rng = SplitMix64(seed)
    kernels = 0
    for rows, cols in SHAPES:
        a = mostly_zero(rng, rows, cols)
        zero = RationalMatrix.zeros(rows, cols)
        for m in (a + (-a), a - a, a + a.scale(-1), a.scale(0)):
            assert m == zero and m.is_zero() and hash(m) == hash(zero)
            assert m.sparse_columns() == [{} for _ in range(cols)]
        _, ker, _ = rank_kernel_image(a)
        if ker.dim:
            kernels += 1
            k = RationalMatrix.from_columns(list(ker.basis), nrows=cols)
            assert sym(a) * sym(k) == sympy.zeros(rows, ker.dim)
            assert (a @ k).is_zero() and a @ k == RationalMatrix.zeros(rows, ker.dim)
        inner = 1 + rng.below(3)
        left, right = mostly_zero(rng, rows, inner), mostly_zero(rng, inner, cols)
        assert (left @ right + left.scale(-1) @ right).is_zero()
    assert kernels >= 3
    # partial cancellation: row 0 of the product cancels, row 1 keeps one entry
    m = (RationalMatrix.from_rows([[1, 1, 0], [0, 2, -1]])
         @ RationalMatrix.from_rows([[1, 0], [-1, 0], [-2, 1]]))
    assert sym(m) == sympy.Matrix([[0, 0], [0, -1]])
    assert m.sparse_columns() == [{}, {1: Fraction(-1)}]
