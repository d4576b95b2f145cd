"""Finitely supported cochain complexes over Q and their calculus.

Conventions, fixed once for the whole package:

* cohomological grading, differentials raise degree by 1;
* Hom differential  d(f) = d_N . f - (-1)^{|f|} f . d_M;
* shift  M[n]^p = M^{n+p}  with differential (-1)^n d;
* cone(p) = (L[1] (+) M, [[d_{L[1]}, 0], [p, d_M]]), basis L[1]-part first;
* tensor  d(v (x) w) = dv (x) w + (-1)^{|v|} v (x) dw  (Koszul sign on the
  left factor -- the only sign rule compatible with d^2 = 0);
* map tensor  (f (x) g)(v (x) w) = (-1)^{|g||v|} f(v) (x) g(w).

Basis orders are always lexicographic (degree, then left/source index), so
every matrix produced here is reproducible byte for byte.

Every k-level map between keyed bases is built in two steps: a builder
names its bases by keys and hands over the sparse image of each source key
to `keyed_columns`, which gives its keyed columns, and `column_blocks`, the
one assembler, turns keyed columns into matrices (`keyed_blocks` does
both); `key_columns` reads a matrix map back.  A realization keeps its
differential as keyed columns and assembles its matrices only when a rank
or a chain map needs them (`SplitComplex.carrier`); the linear dual is a
keyed transpose (`keyed_dual`).  Only `linalg` knows how a matrix is laid
out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (DegreeViolation, DifferentialSquareViolation, DimensionMismatch,
                     IdempotentIncompatible, NotClosed, WrongDegree)
from .linalg import (ZERO, RationalMatrix, SubspacePresentation,
                     quotient_presentation, rank_kernel_image, rank_of, solve_matrix)


class GradedSpace:
    """Finitely supported map degree -> dimension."""

    __slots__ = ("dims",)

    def __init__(self, dims: Mapping[int, int]):
        clean = {}
        for p in sorted(dims):
            d = dims[p]
            if d < 0:
                raise DimensionMismatch("negative dimension")
            if d:
                clean[int(p)] = int(d)
        self.dims = clean

    def dim(self, p: int) -> int:
        return self.dims.get(p, 0)

    def degrees(self):
        return sorted(self.dims)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def shift(self, n: int) -> "GradedSpace":
        return GradedSpace({p - n: d for p, d in self.dims.items()})

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.dims == other.dims

    def __hash__(self):
        return hash(tuple(sorted(self.dims.items())))

    def __repr__(self):
        return f"GradedSpace({self.dims})"


def _checked_blocks(source: GradedSpace, target: GradedSpace, degree: int,
                    given: Mapping[int, RationalMatrix],
                    name: str) -> Dict[int, RationalMatrix]:
    """The blocks source^p -> target^{p+degree} for every p with a nonzero
    target, missing ones zero; a block of the wrong shape raises."""
    clean: Dict[int, RationalMatrix] = {}
    for p in sorted(source.dims):
        np_, nq = source.dim(p), target.dim(p + degree)
        if nq:
            m = given.get(p)
            if m is None:
                m = RationalMatrix.zeros(nq, np_)
            if (m.rows, m.cols) != (nq, np_):
                raise DimensionMismatch(f"{name}{p} must be {nq}x{np_}")
            clean[p] = m
    return clean


class Complex:
    """Cochain complex: graded space plus degree +1 differential.

    `diff[p]` is the matrix of d^p: C^p -> C^{p+1}; it is stored exactly for
    the degrees where both source and target are nonzero.
    """

    __slots__ = ("space", "diff")

    def __init__(self, space: GradedSpace, diff: Mapping[int, RationalMatrix]):
        self.space = space
        self.diff = _checked_blocks(space, space, 1, diff, "d^")
        self.check_d_squared()

    @classmethod
    def concentrated(cls, degree: int, dim: int) -> "Complex":
        return cls(GradedSpace({degree: dim}), {})

    @classmethod
    def unit(cls) -> "Complex":
        """The ground field in degree 0."""
        return cls.concentrated(0, 1)

    def d(self, p: int) -> RationalMatrix:
        m = self.diff.get(p)
        if m is None:
            return RationalMatrix.zeros(self.space.dim(p + 1), self.space.dim(p))
        return m

    def check_d_squared(self):
        for p in self.space.degrees():
            if self.space.dim(p + 2) and self.space.dim(p):
                if not (self.d(p + 1) @ self.d(p)).is_zero():
                    raise DifferentialSquareViolation(f"in degree {p}")

    def degrees(self):
        return self.space.degrees()

    def dim(self, p: int) -> int:
        return self.space.dim(p)

    def total_dim(self) -> int:
        return self.space.total_dim()

    def __eq__(self, other):
        if not isinstance(other, Complex) or self.space != other.space:
            return False
        return all(self.d(p) == other.d(p) for p in self.space.degrees())

    def __hash__(self):
        return hash(self.space)

    def __repr__(self):
        return f"Complex(dims={self.space.dims})"


class ChainMap:
    """Graded map between complexes; `blocks[p]`: source^p -> target^{p+degree}.

    Closedness (commuting with the differentials up to the trace of the Hom
    differential, d_N . f = (-1)^{degree} f . d_M) is testable, not assumed.
    """

    __slots__ = ("source", "target", "degree", "blocks")

    def __init__(self, source: Complex, target: Complex, degree: int,
                 blocks: Mapping[int, RationalMatrix]):
        self.source = source
        self.target = target
        self.degree = degree
        self.blocks = _checked_blocks(source.space, target.space, degree, blocks, "block ")

    @classmethod
    def identity(cls, c: Complex) -> "ChainMap":
        return cls(c, c, 0, {p: RationalMatrix.identity(c.dim(p))
                             for p in c.degrees()})

    @classmethod
    def zero(cls, source: Complex, target: Complex, degree: int = 0) -> "ChainMap":
        return cls(source, target, degree, {})

    def block(self, p: int) -> RationalMatrix:
        m = self.blocks.get(p)
        if m is None:
            return RationalMatrix.zeros(self.target.dim(p + self.degree),
                                        self.source.dim(p))
        return m

    def is_closed(self) -> bool:
        n = self.degree
        for p in self.source.degrees():
            lhs = self.target.d(p + n) @ self.block(p)
            rhs = self.block(p + 1) @ self.source.d(p)
            if lhs != (-rhs if n % 2 else rhs):
                return False
        return True

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self . other (other applied first)."""
        if other.target is not self.source and other.target != self.source:
            raise DimensionMismatch("chain map composition mismatch")
        deg = self.degree + other.degree
        blocks = {}
        for p in other.source.degrees():
            blocks[p] = self.block(p + other.degree) @ other.block(p)
        return ChainMap(other.source, self.target, deg, blocks)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return False
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            return False
        return all(self.block(p) == other.block(p) for p in self.source.degrees())

    def __repr__(self):
        return f"ChainMap(degree={self.degree})"


def keyed_columns(source: Mapping[int, Sequence], target_pos: Mapping, degree: int,
                  image) -> Dict[object, Dict]:
    """The keyed columns of the map sending each source key to the sum of
    its terms image(key), pairs (target key, coeff): key -> {target key:
    coeff}, terms merged and zeros dropped.
    `source` lists the keys per degree and target_pos[key] is (degree, row);
    a term off degree p + degree raises DegreeViolation."""
    cols = {}
    for p, keys in source.items():
        q = p + degree
        for key in keys:
            col = {}
            for key2, c in image(key):
                if target_pos[key2][0] != q:
                    raise DegreeViolation(
                        f"image term in degree {target_pos[key2][0]}, expected {q}")
                col[key2] = col[key2] + c if key2 in col else c
            cols[key] = col if all(col.values()) else {k: c for k, c in col.items() if c}
    return cols


def column_blocks(columns: Mapping[object, Mapping], source: Mapping[int, Sequence],
                  target: Mapping[int, Sequence], target_pos: Mapping,
                  degree: int) -> Dict[int, RationalMatrix]:
    """The blocks over k, source^p -> target^{p+degree}, of the map with
    keyed columns `columns`: the one assembler of k-level matrices."""
    blocks = {}
    for p, keys in source.items():
        tkeys = target.get(p + degree)
        if tkeys:
            blocks[p] = RationalMatrix.from_sparse_columns(len(tkeys), [
                {target_pos[k2][1]: c for k2, c in columns[key].items()}
                for key in keys])
    return blocks


def keyed_blocks(source: Mapping[int, Sequence], target: Mapping[int, Sequence],
                 target_pos: Mapping, degree: int, image) -> Dict[int, RationalMatrix]:
    """keyed_columns then column_blocks: the blocks of the map sending each
    source key to its terms image(key); an off-degree term raises, also
    where the target has no keys in p + degree and the block is empty."""
    return column_blocks(keyed_columns(source, target_pos, degree, image),
                         source, target, target_pos, degree)


def keyed_dual(basis: Mapping[int, Sequence],
               d_columns: Mapping[object, Mapping]) -> Tuple[Dict[int, List], Dict]:
    """The linear dual of a keyed complex, on the same keys: key k of
    degree p stands for its dual functional, of degree -p, and the
    differential is -(-1)^q (d^{-q-1})^T in degree q, so the coefficient of
    k2 in d^*(k) is (-1)^{|k2|} times that of k in d(k2).  The one place
    of the dual sign.  Returns (basis, keyed columns)."""
    cols: Dict[object, Dict] = {k: {} for keys in basis.values() for k in keys}
    for p, keys in basis.items():
        for k2 in keys:
            for k, c in d_columns[k2].items():
                cols[k][k2] = -c if p % 2 else c
    return {-p: list(keys) for p, keys in basis.items()}, cols


def keyed_complex(basis: Mapping[int, Sequence], pos: Mapping,
                  d_columns: Mapping[object, Mapping]) -> Complex:
    """The matrix complex of a keyed differential; d^2 = 0 is checked."""
    space = GradedSpace({p: len(ks) for p, ks in basis.items()})
    return Complex(space, column_blocks(d_columns, basis, basis, pos, 1))


def key_columns(block, degree: int, source: Mapping[int, Sequence],
                target: Mapping[int, Sequence]) -> Dict[object, List]:
    """The inverse of keyed_blocks: each source key -> [(target key,
    coeff)] of the degree-`degree` map whose matrix out of degree p is
    block(p), every block read once."""
    cols = {}
    for p, keys in source.items():
        tkeys = target.get(p + degree)
        if tkeys:
            cols.update(zip(keys, ([(tkeys[r], x) for r, x in col.items()]
                                   for col in block(p).sparse_columns())))
        else:
            cols.update((k, []) for k in keys)
    return cols


def positions(basis: Mapping[int, Sequence]) -> Dict:
    """key -> (degree, row) of a keyed basis."""
    return {k: (p, r) for p, ks in basis.items() for r, k in enumerate(ks)}


def lower_block(x: RationalMatrix, y: RationalMatrix,
                z: RationalMatrix) -> RationalMatrix:
    """The block matrix [[x, 0], [y, z]], the shape of a cone's
    differential."""
    n = x.rows
    cols = [{**cx, **{n + r: v for r, v in cy.items()}}
            for cx, cy in zip(x.sparse_columns(), y.sparse_columns())]
    cols += [{n + r: v for r, v in cz.items()} for cz in z.sparse_columns()]
    return RationalMatrix.from_sparse_columns(n + z.rows, cols)


def shift(c: Complex, n: int) -> Complex:
    """c[n]: degree p part is c^{n+p}, differential scaled by (-1)^n."""
    space = c.space.shift(n)
    sgn = -1 if n % 2 else 1
    diff = {p - n: c.d(p).scale(sgn) for p in c.space.degrees() if c.dim(p + 1)}
    return Complex(space, diff)


def _direct_sum_space(a: GradedSpace, b: GradedSpace) -> GradedSpace:
    degs = set(a.dims) | set(b.dims)
    return GradedSpace({p: a.dim(p) + b.dim(p) for p in degs})


def cone(p: ChainMap) -> Complex:
    """Mapping cone of a closed degree-0 map p: L -> M, the complex
    L[1] (+) M with differential [[d_{L[1]}, 0], [p, d_M]].  Basis in each
    degree: L[1]-part then M-part.
    """
    if p.degree != 0:
        raise WrongDegree("cone needs a degree-0 map")
    if not p.is_closed():
        raise NotClosed("cone needs a closed map")
    L, M = p.source, p.target
    L1 = shift(L, 1)
    space = _direct_sum_space(L1.space, M.space)
    # p.block(deg + 1): L^{deg+1} = L1^{deg} -> M^{deg+1}
    return Complex(space, {
        deg: lower_block(L1.d(deg), p.block(deg + 1), M.d(deg))
        for deg in space.degrees() if space.dim(deg + 1)})


class Cohomology:
    """Cohomology of a complex with deterministic chosen representatives.

    Per degree p we keep the canonical kernel basis K of d^p and the
    first-pivot presentation of ker/im: `project(p)` maps kernel coordinates
    to H^p coordinates and `representatives(p)` returns cycle representatives
    as columns in ambient coordinates.
    """

    def __init__(self, c: Complex):
        self._kernel = {}
        self._project = {}
        self._section = {}
        dims = {}
        # one elimination per differential: its kernel, and the next image
        reduced = {p: rank_kernel_image(c.d(p)) for p in c.degrees()}
        for p, (_, ker, _) in reduced.items():
            kmat = RationalMatrix.from_columns(list(ker.basis), nrows=c.dim(p))
            # image of d^{p-1} inside kernel coordinates
            img_cols = []
            if c.dim(p - 1):
                img = reduced[p - 1][2]
                coords = solve_matrix(
                    kmat, RationalMatrix.from_columns(img.basis, nrows=c.dim(p)))
                if coords is None:
                    raise DifferentialSquareViolation(f"image not in kernel at {p}")
                img_cols = coords.columns()
            sub = SubspacePresentation(kmat.cols, tuple(img_cols))
            proj, section = quotient_presentation(kmat.cols, sub)
            self._kernel[p] = kmat
            self._project[p] = proj
            self._section[p] = section
            if proj.rows:
                dims[p] = proj.rows
        self.dims = GradedSpace(dims)

    def dim(self, p: int) -> int:
        return self.dims.dim(p)

    def representatives(self, p: int) -> RationalMatrix:
        """Columns: chosen cycle representatives of a basis of H^p."""
        return self._kernel[p] @ self._section[p]

    def project_cycles(self, p: int, cycles: RationalMatrix) -> RationalMatrix:
        """Columns must be cycles in degree p; returns their H^p coordinates."""
        if p not in self._kernel:
            return RationalMatrix.zeros(0, cycles.cols)
        coords = solve_matrix(self._kernel[p], cycles)
        if coords is None:
            raise NotClosed("asked to project a non-cycle")
        return self._project[p] @ coords

def _check_idempotent(c: Complex, e: ChainMap):
    """The guards of a summand: e is a degree-0 endomorphism of c with
    e . e = e on the nose, and closed."""
    if e.degree != 0 or any(x is not c and x != c for x in (e.source, e.target)):
        raise WrongDegree("idempotent must be a degree-0 endomorphism of the complex")
    if e.compose(e) != e:
        raise IdempotentIncompatible("e . e != e")
    if not e.is_closed():
        raise NotClosed("idempotent must be closed")


def cohomology_dims(c: Complex, e: Optional[ChainMap] = None) -> GradedSpace:
    """dim H^p = dim ker d^p - rank d^{p-1}, computed by ranks only; with a
    closed exact idempotent e, the cohomology of its image eC, on which d
    restricts: dim H^p(eC) = rank e_p - rank(d_p e_p) - rank(d_{p-1} e_{p-1})."""
    if e is None:
        sizes = {p: c.dim(p) for p in c.degrees()}
        ranks = {p: rank_of(c.d(p)) for p in c.degrees()}
    else:
        _check_idempotent(c, e)
        sizes = {p: rank_of(e.block(p)) for p in c.degrees()}
        ranks = {p: rank_of(c.d(p) @ e.block(p)) for p in c.degrees()}
    return GradedSpace({p: n - ranks.get(p, 0) - ranks.get(p - 1, 0)
                        for p, n in sizes.items()})


def is_acyclic(c: Complex) -> bool:
    return cohomology_dims(c).total_dim() == 0


def is_quasi_iso(f: ChainMap, e: Optional[ChainMap] = None) -> bool:
    """Whether a closed degree-0 f: C -> D is a quasi-isomorphism, or its
    restriction to the image of a closed exact idempotent e of C is.

    The cone of f . e is cone(f|eC) (+) (1-e)C[1], so the restriction is one
    exactly when H^p of that cone is H^{p+1}(C) - H^{p+1}(eC) for every p.
    """
    if e is None:
        return is_acyclic(cone(f))
    whole, summand = cohomology_dims(f.source), cohomology_dims(f.source, e)
    rest = GradedSpace({p: h - summand.dim(p) for p, h in whole.dims.items()})
    return cohomology_dims(cone(f.compose(e))) == rest.shift(1)


def _check_degree_zero_endo(f: ChainMap):
    if f.source is not f.target and f.source != f.target:
        raise DimensionMismatch("supertrace needs an endomorphism")
    if f.degree != 0:
        raise WrongDegree("supertrace needs degree 0")


def chain_supertrace(f: ChainMap) -> Fraction:
    """Alternating sum of block traces of a degree-0 endomorphism."""
    _check_degree_zero_endo(f)
    total = ZERO
    for p in f.source.degrees():
        t = f.block(p).trace()
        total += t if p % 2 == 0 else -t
    return total


def euler_trace(f: ChainMap) -> Fraction:
    """Alternating sum of traces of H^p(f), for closed degree-0 endos.

    Agrees exactly with chain_supertrace on every closed map.
    """
    if f.source != f.target:
        raise DimensionMismatch("euler trace needs an endomorphism")
    if f.degree != 0:
        raise WrongDegree("euler trace needs degree 0")
    if not f.is_closed():
        raise NotClosed("euler trace needs a closed map")
    coh = Cohomology(f.source)
    total = ZERO
    for p in coh.dims.degrees():
        reps = coh.representatives(p)
        mat = coh.project_cycles(p, f.block(p) @ reps)
        t = mat.trace()
        total += t if p % 2 == 0 else -t
    return total


class SplitComplex:
    """A keyed complex together with a closed exact idempotent or None;
    models the image summand without materializing it.  The base of every
    keyed realization of a module (explicit, tensor and Hom), so a summand
    always carries its keys along with its differential and projector.

    `basis[p]` lists the keys of degree p in order and `pos[key]` is
    (p, row).  The differential is kept as keyed columns, `d_columns[key]`
    = {key2: coeff} (set by the subclass), which is all that a realization
    built on top of this one reads.  The matrix complex `carrier` is
    assembled from them once, on first read, for ranks and chain maps; a
    shallow copy made after that read shares it.
    """

    def __init__(self, basis: Mapping[int, Sequence], projector: Optional[ChainMap]):
        self.basis = {p: list(ks) for p, ks in basis.items() if ks}
        self.pos = positions(self.basis)
        self.projector = projector
        self.d_columns: Optional[Dict[object, Dict]] = None

    @cached_property
    def carrier(self) -> Complex:
        return keyed_complex(self.basis, self.pos, self.d_columns)

    def compress(self, f: ChainMap) -> ChainMap:
        """e . f . e on the carrier (f itself when there is no idempotent)."""
        if self.projector is None:
            return f
        return self.projector.compose(f).compose(self.projector)

    def supertrace(self, f: ChainMap) -> Fraction:
        """Supertrace of the endomorphism induced on the image summand.

        For a closed exact idempotent e and any f, e.f.e restricted to the
        complement is zero, so the plain supertrace of e.f.e computes it.
        Since e.e = e, tr(e.f.e) = tr(f.e.e) = tr(f.e) block by block.
        """
        e = self.projector
        return chain_supertrace(f if e is None else f.compose(e))

    def cohomology_dims(self) -> GradedSpace:
        return cohomology_dims(self.carrier, self.projector)
