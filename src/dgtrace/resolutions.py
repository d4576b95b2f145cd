"""Diagonal bimodule resolutions: shipped data and combinators.

A diagonal resolution of a degree-0 algebra A is a perfect module P over
A^e = A (x) A^op together with an augmentation onto the diagonal bimodule A
(one element of A per generator) whose cone is acyclic.  Resolutions are
shipped, not searched for: length 0 with a separability idempotent for
separable algebras, the two-term arrow resolution for path algebras of
acyclic quivers, and tensor/opposite combinators for everything else.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from .algebras import (AlgebraElement, AlgebraIso, DgAlgebra, SparseVec,
                       opposite, pure_tensor, sparse, swap_iso,
                       tensor_algebras)
from .complexes import ChainMap, is_quasi_iso
from .duality import diagonal_explicit, transport_module
from .errors import AugmentationNotQuasiIso, NotDegreeZeroConcentrated
from .linalg import ZERO
from .modules import (ModuleMap, PerfectModule, SemiFreeModule, outer_tensor_modules,
                      restrict_to_ground, semifree_map_to_explicit)

Builder = Callable[[], Tuple[PerfectModule, Tuple[AlgebraElement, ...]]]
SepBuilder = Callable[[], AlgebraElement]


class DiagonalResolution:
    """Perfect A^e-module quasi-isomorphic to the diagonal bimodule.

    `augmentation[i]` is the image in A of the i-th generator.  The module
    and the separability idempotent are built by zero-argument builders on
    first read and memoised: the idempotent of an enveloping resolution
    lives in (^eA)^e, of dimension (dim A)^4, which only kernel composition
    reads.
    """

    def __init__(self, algebra: DgAlgebra, builder: Builder,
                 separability_idempotent: Optional[SepBuilder] = None,
                 name: str = ""):
        if not algebra.is_degree_zero():
            raise NotDegreeZeroConcentrated("resolutions are degree-0 data")
        self.algebra = algebra
        self.name = name
        self._sep_builder = separability_idempotent
        self._sep_idem: Optional[AlgebraElement] = None
        self._builder = builder
        self._built: Optional[Tuple[PerfectModule, Tuple[AlgebraElement, ...]]] = None

    @property
    def separable(self) -> bool:
        """Whether a separability idempotent is shipped (without building it)."""
        return self._sep_builder is not None

    def _build(self):
        if self._built is None:
            self._built = self._builder()
        return self._built

    @property
    def module(self) -> PerfectModule:
        return self._build()[0]

    @property
    def augmentation(self) -> Tuple[AlgebraElement, ...]:
        return self._build()[1]

    def separability_idempotent(self) -> AlgebraElement:
        if self._sep_builder is None:
            raise AugmentationNotQuasiIso("no separability idempotent available")
        if self._sep_idem is None:
            self._sep_idem = self._sep_builder()
        return self._sep_idem

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


def separable_resolution(a: DgAlgebra, sep_idem: AlgebraElement,
                         name: str = "") -> DiagonalResolution:
    """Length-0 resolution of a separable algebra: the image of right
    multiplication by the separability idempotent E on the free rank-1
    A^e-module; the augmentation is the multiplication map."""
    env = tensor_algebras(a, opposite(a))
    e_env = env.element(sep_idem.coords)

    def build():
        mod = SemiFreeModule(env, [0], labels=["diag"])
        idem = ModuleMap(mod, mod, 0, [[e_env]])
        return PerfectModule(mod, idem), (a.one(),)

    return DiagonalResolution(a, build, separability_idempotent=lambda: e_env,
                              name=name)


def quiver_resolution(a: DgAlgebra, vertex_idems: Sequence[int],
                      arrows: Sequence[Tuple[int, int, int]],
                      name: str = "") -> DiagonalResolution:
    """Two-term arrow resolution of the path algebra of an acyclic quiver.

    vertex_idems: basis indices of the primitive idempotents e_v.
    arrows: (basis index of the arrow x, source vertex position, target
    vertex position) with the convention e_src x = x = x e_tgt, i.e. the
    arrow spans e_src A e_tgt.

    Generators: one per arrow in degree -1 (shift 1) mapping to
    (x (x) e_tgt) G_src - (e_src (x) x) G_tgt, then one per vertex in degree
    0 with idempotent e_v (x) e_v and augmentation e_v.
    """
    env = tensor_algebras(a, opposite(a))
    n = a.dim

    def pair(x: int, y: int, c=1) -> SparseVec:
        """c e_x (x) e_y in A^e."""
        return ((x * n + y, c),)

    def build():
        na, nv = len(arrows), len(vertex_idems)
        shifts = [1] * na + [0] * nv
        labels = [f"arr{t}" for t in range(na)] + [f"vtx{t}" for t in range(nv)]
        # d(H_x) = (x (x) e_tgt) G_tgt - (e_src (x) x) G_src, the bimodule
        # map e_src (x) e_tgt -> x (x) e_tgt - e_src (x) x.
        tw = [tuple(sorted([(na + tgt, pair(x, vertex_idems[tgt])),
                            (na + src, pair(vertex_idems[src], x, -1))]))
              for (x, src, tgt) in arrows] + [()] * nv
        mod = SemiFreeModule.from_columns(env, shifts, tw, labels)
        idem = ModuleMap.from_columns(mod, mod, 0, [
            ((t, pair(vertex_idems[src], vertex_idems[tgt])),)
            for t, (x, src, tgt) in enumerate(arrows)] + [
            ((na + t, pair(v, v)),) for t, v in enumerate(vertex_idems)])
        aug = tuple([a.zero()] * na
                    + [a.basis_element(v) for v in vertex_idems])
        return PerfectModule(mod, idem), aug

    return DiagonalResolution(a, build, name=name)


def opposite_resolution(r: DiagonalResolution) -> DiagonalResolution:
    """Resolution of A^op from one of A, transported along the factor swap
    A^e = A (x) A^op -> A^op (x) A = (A^op)^e, x (x) y -> y (x) x (degree-0
    data, so every sign is +1)."""
    a = r.algebra
    aop = opposite(a)
    iso = swap_iso(a, aop, tensor_algebras(a, aop), tensor_algebras(aop, a))

    def build():
        aug = tuple(aop.element(x.coords) for x in r.augmentation)
        return transport_module(r.module, iso), aug

    def sep():
        return iso.target.element(iso.apply(r.separability_idempotent().coords))

    return DiagonalResolution(aop, build,
                              separability_idempotent=sep if r.separable else None,
                              name=f"op({r.name})")


def tensor_resolution(r1: DiagonalResolution, r2: DiagonalResolution,
                      name: str = "") -> DiagonalResolution:
    """Resolution of A (x) B from resolutions of A and B: the outer tensor
    of the modules, transported along
    (A (x) B)^e  =  A^e (x) B^e,
    (a (x) b) (x) (a' (x) b')  ->  (a (x) a') (x) (b (x) b')."""
    a, b = r1.algebra, r2.algebra
    ab = tensor_algebras(a, b)

    def env_perm():
        # flat index in A^e (x) B^e: ((i, j), (k, l)) with i,j over A and
        # k,l over B; target index in (A(x)B)^e: ((i, k), (j, l)).  Built
        # on use: the lazy build() would otherwise hold it for the life of
        # the resolution
        na, nb = a.dim, b.dim
        return [(i * nb + k) * (na * nb) + (j * nb + l)
                for i in range(na) for j in range(na)
                for k in range(nb) for l in range(nb)]

    def build():
        big, prod_env, index = outer_tensor_modules(r1.module, r2.module)
        env_ab = tensor_algebras(ab, opposite(ab))
        transported = transport_module(
            big, AlgebraIso(prod_env, env_ab, env_perm()))
        aug = tuple(ab.element(pure_tensor(r1.augmentation[i].coords,
                                           r2.augmentation[j].coords))
                    for (i, j) in index)
        return transported, aug

    def sep():
        pt = pure_tensor(r1.separability_idempotent().coords,
                         r2.separability_idempotent().coords)
        out = [ZERO] * len(pt)
        for src, dst in enumerate(env_perm()):
            out[dst] = pt[src]
        return tensor_algebras(ab, opposite(ab)).element(out)

    return DiagonalResolution(
        ab, build, separability_idempotent=sep if r1.separable and r2.separable else None,
        name=name or f"{r1.name}(x){r2.name}")


def enveloping_resolution(r: DiagonalResolution) -> DiagonalResolution:
    """Resolution of ^eA = A^op (x) A from a resolution of A."""
    return tensor_resolution(opposite_resolution(r), r, name=f"env({r.name})")
