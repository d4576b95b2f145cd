"""Diagonal bimodule resolutions: shipped data and combinators.

A diagonal resolution of a degree-0 algebra A is a perfect module P over
A^e = A (x) A^op together with an augmentation onto the diagonal bimodule A
(one element of A per generator) whose cone is acyclic.  Resolutions are
shipped, not searched for: one builder takes an algebra's vertex
idempotents and arrows and gives the two-term resolution (length 0 when
there are no arrows), and tensor/opposite combinators give everything
else.  This is the one module that knows what a quiver is: vertex labels
and arrows (label, source, target), read by `path_algebra` and
`quiver_resolution`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence, Tuple

from .algebras import (AlgebraElement, AlgebraIso, DgAlgebra, SparseVec,
                       opposite, pure_tensor, sparse, swap_iso,
                       tensor_algebras, validate_algebra)
from .complexes import ChainMap, is_quasi_iso
from .duality import diagonal_explicit, transport_module
from .errors import (AugmentationNotQuasiIso, NotDegreeZeroConcentrated,
                     ValidationError)
from .modules import (PerfectModule, built_module, outer_tensor_modules,
                      restrict_to_ground, semifree_map_to_explicit)

Builder = Callable[[], Tuple[PerfectModule, Tuple[AlgebraElement, ...]]]


class DiagonalResolution:
    """Perfect A^e-module quasi-isomorphic to the diagonal bimodule, built
    from vertices and arrows by `vertex_arrow_resolution` or by the
    combinators below.

    `augmentation[i]` is the image in A of the i-th generator.  The module
    and the augmentation are built by a zero-argument builder on first read
    and memoised.
    """

    def __init__(self, algebra: DgAlgebra, builder: Builder):
        if not algebra.is_degree_zero():
            raise NotDegreeZeroConcentrated("resolutions are degree-0 data")
        self.algebra = algebra
        self._builder = builder

    @cached_property
    def _built(self) -> Tuple[PerfectModule, Tuple[AlgebraElement, ...]]:
        return self._builder()

    @property
    def module(self) -> PerfectModule:
        return self._built[0]

    @property
    def augmentation(self) -> Tuple[AlgebraElement, ...]:
        return self._built[1]

    def augmentation_chain_map(self) -> ChainMap:
        """The augmentation as a chain map P -> A at the ground level."""
        return semifree_map_to_explicit(self.module.module,
                                        diagonal_explicit(self.algebra), 0,
                                        [[((0, t), c) for t, c in sparse(x.coords)]
                                         for x in self.augmentation])

    def validate(self) -> "DiagonalResolution":
        """The module's twist and idempotent, closedness of the augmentation
        and acyclicity of its cone, on the idempotent image when present."""
        p = self.module
        p.module.validate()
        if p.idempotent is not None:
            p.idempotent.validate()
        aug = self.augmentation_chain_map()
        e = restrict_to_ground(self.module).projector
        if not (aug if e is None else aug.compose(e)).is_closed():
            raise AugmentationNotQuasiIso("augmentation is not a chain map")
        if not is_quasi_iso(aug, e):
            raise AugmentationNotQuasiIso("augmentation cone has cohomology")
        return self


def path_algebra(vertices: Sequence[str],
                 arrows: Sequence[Tuple[str, int, int]]) -> DgAlgebra:
    """The path algebra of a finite acyclic quiver, validated.

    Each arrow is (label, source, target), the endpoints positions in
    `vertices`, and spans e_source A e_target: e_source x = x = x e_target,
    so the path ab runs along a, then along b.  The basis is the vertex
    idempotents, then the paths by length, each length in the order of its
    arrow sequences; a path is labelled by its arrows' labels in order, and
    arrow t is basis element len(vertices) + t.  All in degree 0, with unit
    the sum of the vertices.  An endpoint out of range, or a cycle (a path
    of len(vertices) arrows), raises `ValidationError`.
    """
    nv = len(vertices)
    for label, src, tgt in arrows:
        if src not in range(nv) or tgt not in range(nv):
            raise ValidationError(f"arrow {label} has an endpoint outside "
                                  f"the {nv} vertices")
    # a path is (source, target, arrow positions); a vertex has none
    paths = [(v, v, ()) for v in range(nv)]
    layer = [(src, tgt, (t,)) for t, (_, src, tgt) in enumerate(arrows)]
    while layer:
        if len(layer[0][2]) == nv:
            raise ValidationError("the quiver has a cycle")
        paths += layer
        layer = [(src, tgt, seq + (t,)) for src, end, seq in layer
                 for t, (_, start, tgt) in enumerate(arrows) if start == end]
    index = {(src, seq): k for k, (src, _, seq) in enumerate(paths)}
    mult = {(i, j): ((index[(src, p + q)], 1),)
            for i, (src, end, p) in enumerate(paths)
            for j, (start, _, q) in enumerate(paths) if end == start}
    labels = list(vertices) + ["".join(arrows[t][0] for t in seq)
                               for _, _, seq in paths[nv:]]
    return validate_algebra(labels, [0] * len(paths), mult,
                            [1] * nv + [0] * (len(paths) - nv))


def vertex_arrow_resolution(a: DgAlgebra, vertices: Sequence[int],
                            arrows: Sequence[Tuple[int, int, int]]
                            ) -> DiagonalResolution:
    """Two-term resolution of A from vertex idempotents and arrows.

    `vertices` are the basis indices of orthogonal idempotents e_v, and each
    arrow is (basis index of x, source, target), the endpoints positions in
    `vertices`, with e_src x = x = x e_tgt.  Generators: one per arrow x in
    degree -1 (shift 1), with idempotent e_src (x) e_tgt and
    D(H_x) = (x (x) e_tgt) G_tgt - (e_src (x) x) G_src, the bimodule map
    e_src (x) e_tgt -> x (x) e_tgt - e_src (x) x; then one per vertex v in
    degree 0 with idempotent e_v (x) e_v and augmentation e_v.  A path
    algebra takes its vertices and arrows (Butler and King, "Minimal
    resolutions of algebras", 1999); without arrows the resolution has
    length 0, and needs the multiplication sum_v A e_v (x) e_v A -> A to
    be bijective, as for the full idempotent E11 of the 2x2 matrices.  The
    twist and the idempotent are derived here, so the module is built
    unchecked and `DiagonalResolution.validate` checks it.
    """
    env = tensor_algebras(a, opposite(a))
    n, na, nv = a.dim, len(arrows), len(vertices)

    def pair(x: int, y: int, c=1) -> SparseVec:
        """c e_x (x) e_y in A^e."""
        return ((x * n + y, c),)

    def build():
        shifts = [1] * na + [0] * nv
        tw = [tuple(sorted([(na + tgt, pair(x, vertices[tgt])),
                            (na + src, pair(vertices[src], x, -1))]))
              for x, src, tgt in arrows] + [()] * nv
        idem = [((t, pair(vertices[src], vertices[tgt])),)
                for t, (_, src, tgt) in enumerate(arrows)]
        idem += [((na + v, pair(e, e)),) for v, e in enumerate(vertices)]
        aug = tuple([a.zero()] * na + [a.basis_element(e) for e in vertices])
        return built_module(env, shifts, tw, idem), aug

    return DiagonalResolution(a, build)


def quiver_resolution(vertices: Sequence[str],
                      arrows: Sequence[Tuple[str, int, int]]
                      ) -> DiagonalResolution:
    """`vertex_arrow_resolution` of `path_algebra(vertices, arrows)`, whose
    vertex v is basis element v and arrow t basis element len(vertices) + t."""
    a = path_algebra(vertices, arrows)
    nv = len(vertices)
    basis_arrows = [(nv + t, src, tgt) for t, (_, src, tgt) in enumerate(arrows)]
    return vertex_arrow_resolution(a, range(nv), basis_arrows)


def opposite_resolution(r: DiagonalResolution) -> DiagonalResolution:
    """Resolution of A^op from one of A, transported along the factor swap
    A^e = A (x) A^op -> A^op (x) A = (A^op)^e, x (x) y -> y (x) x (degree-0
    data, so every sign is +1)."""
    a = r.algebra
    aop = opposite(a)
    iso = swap_iso(a, aop, tensor_algebras(aop, a))

    def build():
        aug = tuple(aop.element(x.coords) for x in r.augmentation)
        return transport_module(r.module, iso), aug

    return DiagonalResolution(aop, build)


def tensor_resolution(r1: DiagonalResolution,
                      r2: DiagonalResolution) -> DiagonalResolution:
    """Resolution of A (x) B from resolutions of A and B: the outer tensor
    of the modules, transported along
    (A (x) B)^e  =  A^e (x) B^e,
    (a (x) b) (x) (a' (x) b')  ->  (a (x) a') (x) (b (x) b')."""
    a, b = r1.algebra, r2.algebra
    ab = tensor_algebras(a, b)

    def build():
        big = outer_tensor_modules(r1.module, r2.module)
        env_ab = tensor_algebras(ab, opposite(ab))
        # flat index in A^e (x) B^e: ((i, j), (k, l)) with i,j over A and
        # k,l over B; target index in (A(x)B)^e: ((i, k), (j, l))
        na, nb = a.dim, b.dim
        perm = [(i * nb + k) * (na * nb) + (j * nb + l)
                for i in range(na) for j in range(na)
                for k in range(nb) for l in range(nb)]
        transported = transport_module(big, AlgebraIso(big.algebra, env_ab, perm))
        aug = tuple(ab.element(pure_tensor(x.coords, y.coords))
                    for x in r1.augmentation for y in r2.augmentation)
        return transported, aug

    return DiagonalResolution(ab, build)


def enveloping_resolution(r: DiagonalResolution) -> DiagonalResolution:
    """Resolution of ^eA = A^op (x) A from a resolution of A."""
    return tensor_resolution(opposite_resolution(r), r)
