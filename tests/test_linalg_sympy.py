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
