"""Exception hierarchy for the rmx library.

Every exception raised by rmx derives from :class:`RmxError`, so callers can
catch the whole family with one clause.  Each class additionally inherits the
closest builtin (ValueError, IndexError, ArithmeticError) to stay friendly to
generic error handling.
"""

import operator

__all__ = [
    "RmxError", "NonEllipticKind", "SeriesNotConverged", "PoleProximity",
    "UnsupportedDerivOrder", "DegenerateArguments", "IndexOutOfRange",
    "DimensionMismatch", "SizeCapExceeded", "ZeroArgument", "ContourHitsPole",
    "QuadratureNotConverged", "ExpansionFailed", "BudgetExceeded", "UsageError",
]


class RmxError(Exception):
    """Base class for all rmx errors."""


class NonEllipticKind(RmxError, ValueError):
    """An elliptic-only routine was called with a rational or trigonometric kind."""


class SeriesNotConverged(RmxError, ArithmeticError):
    """A q-series cannot give an accurate value: it overflows, underflows,
    cancels, or hits its term cap before meeting the truncation criterion."""


class PoleProximity(RmxError, ValueError):
    """An argument lies within the exclusion radius of a pole or lattice point."""


class UnsupportedDerivOrder(RmxError, ValueError):
    """Requested derivative order outside the supported range."""


class DegenerateArguments(RmxError, ValueError):
    """Arguments nearly coincide where a formula degenerates (but not exactly)."""


class IndexOutOfRange(RmxError, IndexError):
    """A site or outer index is outside its valid range."""


class DimensionMismatch(RmxError, ValueError):
    """Matrix or operator dimensions are incompatible."""


class SizeCapExceeded(RmxError, ValueError):
    """A tensor-power dimension exceeds the fixed size cap ``tensor_ops.SIZE_CAP``."""


class ZeroArgument(RmxError, ValueError):
    """An argument that must be nonzero is zero."""


class ContourHitsPole(RmxError, ValueError):
    """A quadrature contour passes too close to a pole of the integrand."""


class QuadratureNotConverged(RmxError, ArithmeticError):
    """Contour quadrature refinement failed to stabilize."""


class ExpansionFailed(RmxError, ArithmeticError):
    """A series or Laurent expansion is inconsistent with its closed form."""


class BudgetExceeded(RmxError, ValueError):
    """A requested run exceeds the configured work budget."""


class UsageError(RmxError, ValueError):
    """Malformed command-line or configuration input."""


def _as_index(name, value):
    """``value`` as an int by ``operator.index``; anything else, a float
    included, is a :class:`UsageError` that names the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


def _as_count(name, value, low):
    """``value`` as an int of at least ``low``, by :func:`_as_index`; one
    below it is a :class:`UsageError` too."""
    value = _as_index(name, value)
    if value < low:
        raise UsageError(f"{name} must be >= {low}, got {value}")
    return value
