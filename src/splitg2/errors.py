"""Exception types shared across the package.

Every package error derives from `SplitG2Error` as well as from the
builtin exception it specializes, so callers can catch either.
"""


class SplitG2Error(Exception):
    """Base of every error the package raises on purpose."""


class AlphabetMismatch(SplitG2Error, ValueError):
    """Two scalars from different parameter alphabets were combined."""


class PoleAtPoint(SplitG2Error, ZeroDivisionError):
    """A rational function was specialized at a zero of its denominator."""


class ParseError(SplitG2Error, ValueError):
    """Malformed scalar expression or structured-text document."""


class DimensionMismatch(SplitG2Error, ValueError):
    """Operands live over coframes of different dimensions."""


class DegreeMismatch(SplitG2Error, ValueError):
    """Linear combination of forms of different degrees."""


class SingularMatrix(SplitG2Error, ValueError):
    """Exact inversion of a singular matrix was requested."""


class Degenerate(SplitG2Error, ValueError):
    """A metric tensor with zero determinant was supplied."""


class NotAFibration(SplitG2Error, ValueError):
    """The horizontal coframe fails the integrability test."""


class NotInvariant(SplitG2Error, ValueError):
    """A subspace fails the required bracket-invariance condition."""


class WrongDimension(SplitG2Error, ValueError):
    """A solution space has a dimension other than the structural one."""


class NonUniqueSolution(SplitG2Error, ValueError):
    """A linear solve required to be unique has free unknowns."""


class InconsistentSystem(SplitG2Error, ValueError):
    """A linear solve met a contradictory equation."""


class ZeroReference(SplitG2Error, ValueError):
    """Volume calibration against a zero reference value."""


class ValidationError(SplitG2Error, ValueError):
    """Input data fails a structural validity check."""


class ExclusionError(SplitG2Error, ValueError):
    """A parameter specialization hits an excluded value."""


class InternalInconsistency(SplitG2Error, RuntimeError):
    """A cross-check that can only fail on an internal bug fired."""
