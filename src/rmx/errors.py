"""Exception hierarchy for the rmx library.

Every exception raised by rmx derives from :class:`RmxError`, so callers can
catch the whole family with one clause.  Each class additionally inherits the
closest builtin (ValueError, IndexError, ArithmeticError) to stay friendly to
generic error handling.

The helpers at the end serve the batch entries of the checks: an entry
takes a list of requests, returns one value per request and raises the
first RmxError it meets, and :func:`_joint` alone reruns a group that
raised one item at a time, so that an error fails only its own request.
"""

import operator

import numpy as np

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


def _as_complex(name, value):
    """``value`` as a complex; an array is a :class:`DimensionMismatch` naming
    its shape, a value complex() rejects a :class:`UsageError` naming ``name``."""
    try:
        if isinstance(value, (int, float, complex)) or np.ndim(value) == 0:
            return complex(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be a complex number, got {value!r}") from None
    raise DimensionMismatch(f"{name} must be a scalar, got shape {np.shape(value)}")


def _as_array(name, value):
    """``value`` as a complex array; a value numpy cannot make complex is a
    :class:`UsageError` naming ``name``."""
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be complex, got {value!r}") from None


def _as_count(name, value, low):
    """``value`` as an int of at least ``low``, by :func:`_as_index`; one
    below it is a :class:`UsageError` too."""
    value = _as_index(name, value)
    if value < low:
        raise UsageError(f"{name} must be >= {low}, got {value}")
    return value


def _alone(batch, request):
    """The value of ``batch`` on one request."""
    (out,) = batch([request])
    return out


def _grouped(build, items, key):
    """One value per item: build(group), a list of one value per item of the
    group, with one call per group of the items of equal ``key(item)``.  An
    RmxError that a call raises propagates."""
    out, groups = list(items), {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    for idx in groups.values():
        for i, value in zip(idx, build([items[i] for i in idx])):
            out[i] = value
    return out


def _joint(build, items, key):
    """:func:`_grouped`, except that a group whose call raises an RmxError
    runs build on each of its items alone, and each item gets its value or
    the RmxError it meets alone."""
    def isolating(group):
        try:
            return build(group)
        except RmxError as exc:
            if len(group) == 1:
                return [exc]
            # through _joint, not isolating itself: a closure that refers to
            # itself is a reference cycle, freed only by the garbage collector
            return [_joint(build, [item], key)[0] for item in group]
    return _grouped(isolating, items, key)
