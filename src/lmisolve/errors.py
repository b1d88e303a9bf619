"""Exception types shared across the package."""

__all__ = [
    "LmiSolveError",
    "NonFiniteInput",
    "DimensionMismatch",
    "InvalidParameter",
    "ZeroMatrix",
    "InfeasibleLevel",
    "IterationCapReached",
    "ParseError",
]


class LmiSolveError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteInput(LmiSolveError):
    """An input matrix or vector contains NaN or Inf entries, or an oracle
    returned a NaN or Inf value during a solve (for example because the
    iterates grew beyond floating-point range)."""


class DimensionMismatch(LmiSolveError):
    """Operands have incompatible dimensions."""


class InvalidParameter(LmiSolveError):
    """A parameter is outside its documented range."""


class ZeroMatrix(LmiSolveError):
    """An operation that needs a nonzero matrix received all zeros."""


class InfeasibleLevel(LmiSolveError):
    """A level-set projection target is empty: the cutting model sits above
    the level but its subgradient is zero, so no point can reach the level."""


class IterationCapReached(LmiSolveError):
    """An iteration budget ran out before the termination test fired."""


class ParseError(LmiSolveError):
    """A problem file is malformed; the message names the offending line."""
