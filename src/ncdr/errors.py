"""Exception hierarchy shared by all ncdr modules.

Errors for arguments of the wrong shape, range or syntax also derive from
ValueError, as json.JSONDecodeError does, so callers that catch ValueError
keep catching them.
"""

from __future__ import annotations


class NcdrError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class ZeroParameter(NcdrError):
    """Quaternion algebra parameters must satisfy a*b != 0."""


class AlgebraMismatch(NcdrError):
    """Operands belong to different algebras."""


class DimensionMismatch(NcdrError, ValueError):
    """Vector/matrix shapes do not line up."""


class WrongDimension(NcdrError):
    """Operation requires an algebra of a specific dimension."""


class AxiomViolated(NcdrError, ValueError):
    """A structure tensor breaks the unit or associativity axiom."""


class NotInvertible(NcdrError):
    """Element has zero norm and no inverse."""


class Singular(NcdrError):
    """Matrix has no inverse."""


class NotQuaternionBlock(NcdrError):
    """A D-matrix inverse B fails its check B @ A == I."""


class NotRepresentable(NcdrError):
    """Coordinate matrix has no standard-component representation.

    residual is the least-squares residual where a numeric solve decided it,
    None where the exact solve found the system inconsistent.
    """

    def __init__(self, message: str, *, residual: float | None = None) -> None:
        super().__init__(message)
        self.residual = residual


class DegreeTooLarge(NcdrError):
    """Size guard: a symbolic computation would build or evaluate more words
    than its limit admits."""


class NonConvergent(NcdrError):
    """Numeric derivative extrapolation did not settle within tolerance.

    error is the disagreement that failed the check, an estimate of the
    extrapolation error and not a bound on it, and scale the magnitude it was
    judged against; step is the base difference step, where the failing
    check ran on one.
    """

    def __init__(
        self,
        message: str,
        *,
        error: float | None = None,
        scale: float | None = None,
        step: float | None = None,
    ) -> None:
        super().__init__(message)
        self.error = error
        self.scale = scale
        self.step = step


class UnboundSymbol(NcdrError):
    """Word evaluation hit a variable with no binding."""


class RangeError(NcdrError, ValueError):
    """Argument outside the supported range."""


class NoSolution(NcdrError):
    """Differential equation has no solution (symmetry obstruction)."""


class ParseError(NcdrError, ValueError):
    """Malformed literal, expression, matrix spec or JSON document, or an
    input file that cannot be read."""
