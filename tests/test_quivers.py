"""Path algebras and their two-term resolutions beyond the catalog.

`resolutions.path_algebra` builds the path algebra of an acyclic quiver
from its (vertices, arrows) list, and `quiver_resolution` its two-term
diagonal resolution.  On linear quivers longer than the catalog's, on a
branching tree and on a quiver with two paths between the same vertices:
the resolution validates, HH_0 has one class per vertex, and the Cartan
pairing <[e_i], [e_j]> counts the paths from i to j, against both a
count over the quiver itself and the basis-enumeration oracle of
`suites.cartan_tables`.  A cycle or an endpoint out of range is refused.
"""

import pytest

from dgtrace.algebras import opposite
from dgtrace.errors import DgError
from dgtrace.hochschild import hh0_space
from dgtrace.pairing import pair_scalar
from dgtrace.resolutions import path_algebra, quiver_resolution
from dgtrace.suites import cartan_oracle


def linear(n):
    """A_n: vertices e1..en, arrows a, b, c, ... from each vertex to the
    next."""
    return ([f"e{v + 1}" for v in range(n)],
            [(chr(ord("a") + v), v, v + 1) for v in range(n - 1)])


BEYOND_CATALOG = {
    "A4": linear(4),
    "A5": linear(5),
    # 0 -> 1, 0 -> 2, 1 -> 3, 1 -> 4, 2 -> 5
    "tree": (["r", "s", "t", "u", "v", "w"],
             [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 1, 4), ("f", 2, 5)]),
    # two paths from 0 to 3
    "diamond": (["p", "q", "r", "s"],
                [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 2, 3)]),
}


def paths_between(vertices, arrows):
    """count[i][j], the number of paths from i to j (the empty path at
    each vertex included), walked over the quiver."""
    n = len(vertices)

    def walk(i):
        reached = [0] * n
        reached[i] += 1
        for _, src, tgt in arrows:
            if src == i:
                for j, c in enumerate(walk(tgt)):
                    reached[j] += c
        return reached
    return [walk(i) for i in range(n)]


def test_basis_is_vertices_then_paths_by_length():
    a = path_algebra(*BEYOND_CATALOG["A4"])
    assert a.labels == ("e1", "e2", "e3", "e4", "a", "b", "c",
                        "ab", "bc", "abc")
    assert a.unit == (1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert a.degrees == (0,) * 10
    tree = path_algebra(*BEYOND_CATALOG["tree"])
    assert tree.labels[6:] == ("a", "b", "c", "d", "f", "ac", "ad", "bf")
    assert a.by_label("a") * a.by_label("bc") == a.by_label("abc")
    assert a.by_label("e1") * a.by_label("ab") == a.by_label("ab")
    assert a.by_label("ab") * a.by_label("e3") == a.by_label("ab")
    assert (a.by_label("bc") * a.by_label("a")).is_zero()


@pytest.mark.parametrize("name", sorted(BEYOND_CATALOG))
def test_quiver_beyond_the_catalog(name):
    vertices, arrows = BEYOND_CATALOG[name]
    r = quiver_resolution(vertices, arrows).validate()
    a = r.algebra
    n = len(vertices)
    assert a.dim == sum(map(sum, paths_between(vertices, arrows)))
    sp, spo = hh0_space(a), hh0_space(opposite(a))
    assert sp.dim == n
    table = [[pair_scalar(spo.class_of(opposite(a).basis_element(i)),
                          sp.class_of(a.basis_element(j))) for j in range(n)]
             for i in range(n)]
    assert table == paths_between(vertices, arrows)
    assert table == cartan_oracle(a, range(n))


@pytest.mark.parametrize("arrows", [
    [("a", 0, 0)],
    [("a", 0, 1), ("b", 1, 0)],
    [("a", 0, 1), ("b", 1, 2), ("c", 2, 1)],
])
def test_a_cycle_is_refused(arrows):
    with pytest.raises(DgError, match="cycle"):
        path_algebra(["x", "y", "z"], arrows)
    with pytest.raises(DgError, match="cycle"):
        quiver_resolution(["x", "y", "z"], arrows)


@pytest.mark.parametrize("arrow", [("a", 0, 2), ("a", 2, 0), ("a", -1, 1)])
def test_an_endpoint_out_of_range_is_refused(arrow):
    with pytest.raises(DgError, match="endpoint"):
        path_algebra(["x", "y"], [arrow])
