import doctest

import dgtrace.linalg
import dgtrace.prng


def test_linalg_doctests():
    failures, _ = doctest.testmod(dgtrace.linalg)
    assert failures == 0


def test_prng_doctests():
    failures, attempted = doctest.testmod(dgtrace.prng)
    assert failures == 0 and attempted > 0
