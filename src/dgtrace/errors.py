"""Exception types raised by validators and gated operations."""


class DgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DgError):
    """Shapes of matrices, vectors or complexes do not line up."""


class ValidationError(DgError):
    """Structured data failed one of its invariants."""


class AssociativityViolation(ValidationError):
    def __init__(self, i, j, k):
        super().__init__(f"associativity fails on basis triple {(i, j, k)}")


class UnitViolation(ValidationError):
    def __init__(self, index, side):
        super().__init__(f"unit fails on basis element {index} ({side} side)")


class LeibnizViolation(ValidationError):
    def __init__(self, i, j):
        super().__init__(f"Leibniz rule fails on basis pair {(i, j)}")


class DifferentialSquareViolation(ValidationError):
    def __init__(self, where=""):
        super().__init__(f"differential does not square to zero {where}".rstrip())


class DegreeViolation(ValidationError):
    """Multiplication or a matrix entry is not degree-compatible."""


class TriangularityViolation(ValidationError):
    """A twisting matrix is not strictly triangular in the generator order."""


class NotClosed(DgError):
    """A map that must commute with the differentials does not."""


class WrongDegree(DgError):
    """A map has the wrong degree for this operation."""


class IdempotentIncompatible(DgError):
    """An endomorphism is not compatible with the module's idempotent."""


class NotDegreeZeroConcentrated(DgError):
    """Operation requires an algebra concentrated in degree 0 with d = 0."""


class AugmentationNotQuasiIso(DgError):
    """A diagonal resolution's augmentation has a non-acyclic cone."""


class NoDiagonalResolutionForB(DgError):
    """The middle algebra of a contraction carries no diagonal resolution."""


class AlgebraMismatch(DgError):
    """Operands are defined over different algebras."""


class WorkspaceError(DgError):
    """Malformed or inconsistent workspace input."""

    def __init__(self, message, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
