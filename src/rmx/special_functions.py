r"""Scalar special functions underlying the R-matrix identity hierarchy.

This module evaluates, in all three kinds (rational, trigonometric,
elliptic), the function zoo

* odd theta function :math:`\vartheta(z|\tau)` (elliptic kind only),
* first Eisenstein function :math:`E_1(z)` and its derivatives,
* Weierstrass function :math:`\wp(z)` and its derivatives,
* Kronecker function :math:`\phi(\eta, z)` and its eta-derivative,

together with residual checks for the Fay three-term identity and the
cyclic-sum identities

.. math::

    \sum_{\text{orderings}} \phi(\eta, z_a - z_{i_1})
        \phi(\eta, z_{i_1} - z_{i_2}) \cdots \phi(\eta, z_{i_{n-1}} - z_a)
    = (-1)^n \wp^{(n-2)}(\eta), \qquad n \ge 3.

Conventions
-----------
The elliptic kind uses the odd theta function

.. math::

    \vartheta(z|\tau) = 2 \sum_{k \ge 0} (-1)^k q^{(k+1/2)^2}
        \sin\bigl(2\pi (k + 1/2) z\bigr), \qquad q = e^{i\pi\tau},

with periods 1 and tau, so the zero lattice is Z + tau Z.  Then

* :math:`E_1(z) = \vartheta'(z) / \vartheta(z)`,
* :math:`\wp(z) = -E_1'(z) + c(\tau)` with the constant fixed so that
  :math:`\wp(z) - 1/z^2 \to 0` as :math:`z \to 0`,
* :math:`\phi(\eta, z) = \vartheta'(0)\,\vartheta(\eta + z) /
  (\vartheta(\eta)\vartheta(z))`.

The rational kind replaces these by :math:`1/z`, :math:`1/z^2`,
:math:`1/\eta + 1/z`; the trigonometric kind by :math:`\coth z`,
:math:`1/\sinh^2 z`, :math:`\coth\eta + \coth z` (pole lattice
:math:`i\pi\mathbb{Z}`).

All evaluation routines accept scalars or numpy arrays (broadcasting) and
reject arguments within ``EXCLUSION_RADIUS`` of a pole of the defining
expression, raising :class:`~rmx.errors.PoleProximity`.  :func:`fay_check`
and :func:`scalar_cyclic_sum` are batch entries, as in ``identities``, run on
one request: a batch takes one kronecker_phi call per lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import ceil, comb, factorial, log, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateArguments,
    DimensionMismatch,
    IndexOutOfRange,
    NonEllipticKind,
    PoleProximity,
    SeriesNotConverged,
    UnsupportedDerivOrder,
    _alone,
    _as_array,
    _as_complex,
    _as_index,
    _grouped,
)

__all__ = [
    "FunctionKind",
    "LatticeParams",
    "theta",
    "eisenstein_e1",
    "weierstrass_p",
    "kronecker_phi",
    "kronecker_phi_deta",
    "fay_check",
    "scalar_cyclic_sum",
    "MAX_WP_DERIV_ORDER",
]

#: Bound on every theta q-series term from the third-last summed on.
SERIES_TOL = 1e-15
#: Cap on the number of theta q-series terms.
MAX_TERMS = 200
#: Arguments closer than this to a pole of the defining expression are rejected.
EXCLUSION_RADIUS = 1e-6

#: Highest supported derivative order of weierstrass_p (covers identities up
#: to n = 8, which need wp^(6)).
MAX_WP_DERIV_ORDER = 6


class FunctionKind(str, Enum):
    """Which degeneration of the elliptic function family is in play."""

    RATIONAL = "rational"
    TRIGONOMETRIC = "trigonometric"
    ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class LatticeParams:
    """Evaluation context shared by every scalar function.

    Parameters
    ----------
    kind : FunctionKind or str
        Degeneration: ``rational``, ``trigonometric`` or ``elliptic``.
    tau : complex
        Modular parameter; requires ``Im(tau) > 0`` for the elliptic kind
        and is ignored otherwise.  Theta-based evaluations raise
        SeriesNotConverged above Im(tau) = 433, where theta values underflow.
    """

    kind: FunctionKind
    tau: complex = 1j

    def __post_init__(self):
        object.__setattr__(self, "kind", FunctionKind(self.kind))
        object.__setattr__(self, "tau", _as_complex("tau", self.tau))
        if self.kind is FunctionKind.ELLIPTIC and not self.tau.imag > 0:
            raise NonEllipticKind(
                f"elliptic kind needs Im(tau) > 0, got tau = {self.tau}"
            )
        if self.kind is FunctionKind.ELLIPTIC and not np.isfinite(self.tau):
            raise NonEllipticKind(
                f"elliptic kind needs a finite tau, got tau = {self.tau}"
            )
        if self.kind is FunctionKind.ELLIPTIC:
            u, v, du, dv = _reduced_cell(self.tau)
            object.__setattr__(self, "_cell", (u, v, du, dv))
            object.__setattr__(self, "_corners", np.array([0, u, v, u + v]))

    @property
    def shortest_period(self):
        """Length of the shortest nonzero vector of Z + tau Z (elliptic kind)."""
        return abs(self._cell[0])

    def lattice_distance(self, z):
        """Distance from ``z`` to the nearest pole/lattice point of this kind.

        Elliptic kind: the nearest corner of the reduced cell around z.
        """
        return _KINDS[self.kind].distance(self, _as_array("z", z))


def _reduced_cell(tau):
    """Lagrange-Gauss reduced basis (u, v) of Z + tau Z, and the factors
    du, dv that give the coordinates of z = x u + y v as x = Im(z du),
    y = Im(z dv).  Reduced means |u| <= |v| and |Re(v / u)| <= 1/2, so one
    diagonal splits the cell of u and v into two non-obtuse Delaunay
    triangles, and every point has its nearest lattice point among the
    corners of the triangle, hence of the cell, that contains it.
    """
    u, v = 1.0 + 0j, complex(tau)
    while True:
        if abs(v) < abs(u):
            u, v = v, u
        m = round((v / u).real)
        if m == 0:
            break
        v -= m * u
    du = v.conjugate() / (v.conjugate() * u).imag
    dv = u.conjugate() / (u.conjugate() * v).imag
    return u, v, du, dv


def _off_lattice(params, *slots):
    """Join the named arguments of ``slots``, (name, array) pairs, into one
    flat vector, check it with one lattice_distance call and return it.

    A failure names the first bad slot: an entry at no finite distance (NaN, inf)
    raises :class:`SeriesNotConverged`, one near a pole :class:`PoleProximity`.
    """
    flat = np.concatenate([np.asarray(v, dtype=complex).ravel() for _, v in slots])
    d = params.lattice_distance(flat)
    if d.size and not (d.min() >= EXCLUSION_RADIUS and d.max() < np.inf):
        edges = np.cumsum([0] + [np.size(v) for _, v in slots])
        for (what, _), lo, hi in zip(slots, edges, edges[1:]):
            bad = flat[lo:hi][~(d[lo:hi] < np.inf)]
            if bad.size:
                raise SeriesNotConverged(f"{what} {bad[0]} is not a finite argument")
            if np.any(d[lo:hi] < EXCLUSION_RADIUS):
                bad = flat[lo + np.argmin(d[lo:hi])]
                raise PoleProximity(
                    f"{what} {bad} is within {EXCLUSION_RADIUS} of a "
                    f"{params.kind.value} lattice point"
                )
    return flat


def _split(flat, slots):
    """Cut the last axis of flat, the concatenated entries of the arrays
    slots, back into arrays of their shapes."""
    edges = [0, *itertools.accumulate(s.size for s in slots)]
    return [flat[..., lo:hi].reshape(flat.shape[:-1] + s.shape)
            for lo, hi, s in zip(edges, edges[1:], slots)]


def _asarray(x):
    arr = _as_array("z", x)
    return arr, arr.ndim == 0


def _finish(arr, scalar):
    return complex(arr[()]) if scalar else arr


# ---------------------------------------------------------------------------
# theta series
# ---------------------------------------------------------------------------

#: A theta value whose round-off, eps times the summed magnitudes of its
#: terms, exceeds this fraction of the value raises SeriesNotConverged.
_CANCELLATION_TOL = 1e-12
_EPS = np.finfo(float).eps
#: Largest Im(tau) the theta series serves.  An off-lattice theta value is
#: about EXCLUSION_RADIUS |q|^(1/4) = EXCLUSION_RADIUS exp(-pi Im(tau) / 4)
#: in size or more, and phi divides by a product of two: past this Im(tau)
#: that product is no longer a normal float.
_MAX_IM_TAU = 2.0 / np.pi * (2.0 * log(EXCLUSION_RADIUS) - log(np.finfo(float).tiny))


@lru_cache(maxsize=128)
def _theta_factors(tau, terms, max_order):
    """Factors of theta's terms 0 <= k < terms that depend on tau alone: the
    exponents i pi tau (k+1/2)^2, the wave numbers u = 2 pi i (k+1/2), the
    weights (-1)^k u^d / i of the orders d = 0..max_order and their moduli.
    The order-d term is its weight times e+ - (-1)^d e-, e+- = exp(expo +- u z),
    so zero-padded weights act on [e+ - e-; e+ + e-]: one matmul, every order.
    """
    kp = np.arange(terms) + 0.5
    iu = 2j * np.pi * kp
    w = (-1.0) ** np.arange(terms) * iu ** np.arange(max_order + 1)[:, None] / 1j
    odd = np.arange(max_order + 1)[:, None] % 2 == 1
    weights = np.concatenate([np.where(odd, 0, w), np.where(odd, w, 0)], axis=1)
    out = 1j * np.pi * tau * kp * kp, iu, weights, np.abs(weights)
    for a in out:  # shared by every caller
        a.flags.writeable = False
    return out


def _theta_terms(params, y, d):
    """Number K of theta terms to sum for orders 0..d at max|Im z| = y: the
    smallest K with every term k >= K-3 below SERIES_TOL under the bound
    |term_k| <= 2 (2 pi x)^d exp(-pi Im(tau) x^2 + 2 pi x y), x = k + 1/2.
    The log f(x) of bound / SERIES_TOL is concave in x, so Newton's method,
    started at the last root of a quadratic above f (log(2 pi x) <= 2 pi x / e),
    falls monotonically onto the last root of f.
    """
    if not params.tau.imag <= _MAX_IM_TAU:
        raise SeriesNotConverged(
            f"theta values underflow at Im(tau) = {params.tau.imag:g} "
            f"> {_MAX_IM_TAU:.0f}"
        )
    t, b, c = np.pi * params.tau.imag, 2.0 * np.pi * y, log(2.0 / SERIES_TOL)
    s = b + 2.0 * np.pi * d / np.e
    x = max((s + sqrt(max(s * s + 4.0 * t * c, 0.0))) / (2.0 * t), 0.5)
    for _ in range(60):
        slope = d / x - 2.0 * t * x + b
        if slope >= 0:  # f peaks below 0: no term reaches SERIES_TOL
            return 3
        step = (c + d * log(2.0 * np.pi * x) - t * x * x + b * x) / slope
        x -= step
        if not (0.5 < x < np.inf and abs(step) > 1e-9 * x):
            break
    if not x <= MAX_TERMS - 2.5:  # also a non-finite y
        raise SeriesNotConverged(
            f"theta series needs more than MAX_TERMS={MAX_TERMS} terms "
            f"to meet tol={SERIES_TOL} at max|Im z| = {y}"
        )
    return max(ceil(x - 0.5), 0) + 3


def _theta_derivs(z, params, max_order):
    """z-derivatives of theta, orders 0..max_order, shape (max_order+1,) + z.shape.

    The K terms of _theta_terms are summed in one pass, one matmul.  A sum
    that overflows, or cancels past _CANCELLATION_TOL of its size, raises;
    exact zeros, such as theta(0), pass.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(1, -1)
    K = _theta_terms(params, float(np.abs(flat.imag).max(initial=0.0)), max_order)
    expo, iu, w, w_abs = _theta_factors(params.tau, K, max_order)
    with np.errstate(over="ignore", invalid="ignore"):
        ep = np.exp(expo[:, None] + iu[:, None] * flat)
        em = np.exp(expo[:, None] - iu[:, None] * flat)
        # [e+ - e-; e+ + e-] written in place, and e+- dropped: a batch of
        # many arguments holds fewer arrays of K x its size at once
        terms = np.empty((2 * K, flat.shape[1]), dtype=complex)
        np.subtract(ep, em, out=terms[:K])
        np.add(ep, em, out=terms[K:])
        del ep, em
        sums = w @ terms
        if not np.isfinite(sums).all():
            raise SeriesNotConverged(
                "theta series overflowed; argument too far from the "
                "fundamental cell"
            )
        if (_EPS * (w_abs @ np.abs(terms)) > _CANCELLATION_TOL * np.abs(sums)).any():
            raise SeriesNotConverged(
                f"theta series cancels past a relative {_CANCELLATION_TOL}; "
                "argument too close to a lattice point or Im(tau) too small"
            )
    return sums.reshape((max_order + 1,) + z.shape)


@lru_cache(maxsize=128)
def _theta_origin(params):
    """theta'(0), and the constant c(tau) = theta'''(0) / (3 theta'(0)) that
    makes wp(z) - 1/z^2 vanish at 0."""
    d = _theta_derivs(np.complex128(0.0), params, 3)
    d1, d3 = complex(d[1]), complex(d[3])
    return d1, d3 / (3.0 * d1)


def theta(z, params, deriv_order=0):
    r"""Odd theta function :math:`\vartheta(z|\tau)` or a z-derivative of it.

    Parameters
    ----------
    z : complex or array_like
    params : LatticeParams
        Must have ``kind = elliptic``.
    deriv_order : int, optional
        Order of the z-derivative, computed by term-wise differentiation
        of the q-series.

    Returns
    -------
    complex or ndarray

    Raises
    ------
    NonEllipticKind
        If ``params.kind`` is not elliptic.
    SeriesNotConverged
        Before summing, if Im(tau) is so large that theta values underflow,
        if the tail bound needs more than ``MAX_TERMS`` terms or if Im z is
        not finite; after, if the series overflows or its terms cancel to
        fewer than 12 digits.
    """
    if params.kind is not FunctionKind.ELLIPTIC:
        raise NonEllipticKind(f"theta requires elliptic kind, got {params.kind.value}")
    deriv_order = _as_index("deriv_order", deriv_order)
    if deriv_order < 0:
        raise UnsupportedDerivOrder("deriv_order must be non-negative")
    arr, scalar = _asarray(z)
    return _finish(_theta_derivs(arr, params, deriv_order)[deriv_order], scalar)


# ---------------------------------------------------------------------------
# one table for the three kinds
# ---------------------------------------------------------------------------

def _e1_from_theta(th, orders):
    """E1^(d) = (theta'/theta)^(d) for d in the range orders, by the
    log-derivative recursion on the theta jet th of orders 0..orders[-1]+1."""
    out = np.zeros_like(th[: orders[-1] + 1])
    for m in range(orders[-1] + 1):
        s = th[m + 1].copy()
        for j in range(m):
            s -= comb(m, j) * out[j] * th[m - j]
        out[m] = s / th[0]
    return out[orders[0]:]


@lru_cache(maxsize=None)
def _coth_poly(order):
    """Ascending coefficients of the order-th derivative of coth, a polynomial in coth.

    d/dz coth = 1 - coth^2, so differentiation maps p(c) to p'(c) (1 - c^2).
    The coefficients are integers, exact in floats.
    """
    if order == 0:
        return (0.0, 1.0)
    prev = _coth_poly(order - 1)
    return tuple(np.convolve(np.arange(1, len(prev)) * prev[1:], (1.0, 0.0, -1.0)))


def _rational_e1(params, z, orders):
    # (1/z) ** (d+1), not z ** -(d+1): numpy's complex power gives nan where
    # |z|^(d+1) overflows, and the value underflows to 0 there
    return np.stack([(-1.0) ** d * factorial(d) * (1.0 / z) ** (d + 1) for d in orders])


def _trigonometric_e1(params, z, orders):
    coth = 1.0 / np.tanh(z)
    out = []
    for d in orders:
        *low, top = _coth_poly(d)
        e1 = top + coth * 0  # Horner's rule in the order of numpy's polyval
        for coeff in reversed(low):
            e1 = coeff + e1 * coth
        out.append(e1)
    return np.stack(out)


def _elliptic_distance(params, z):
    u, v, du, dv = params._cell
    r = z - (np.floor((z * du).imag) * u + np.floor((z * dv).imag) * v)
    return np.abs(r[..., None] - params._corners).min(axis=-1)


def _elliptic_phi(params, slots, flat, with_e1):
    th = _theta_derivs(flat, params, int(with_e1))
    t = _split(th[0], slots)
    phi = _theta_origin(params)[0] * t[2] / (t[0] * t[1])
    return phi, _split(_e1_from_theta(th, range(1))[0], slots) if with_e1 else None


class _Kind(NamedTuple):
    """One kind's functions.  distance(params, z): distance of z to the
    nearest pole.  e1(params, z, orders): E1^(d)(z) stacked over d in the
    range orders.  phi(params, s, flat, with_e1): phi(eta, z) on the slots
    s = (eta, z, eta + z), whose entries flat concatenates, and the E1 of
    each slot if with_e1, else None."""

    distance: Callable
    e1: Callable
    phi: Callable


_KINDS = {
    FunctionKind.RATIONAL: _Kind(
        lambda params, z: np.abs(z),
        _rational_e1,
        lambda params, s, flat, with_e1: (
            1.0 / s[0] + 1.0 / s[1],
            [_rational_e1(params, v, range(1))[0] for v in s] if with_e1 else None,
        ),
    ),
    FunctionKind.TRIGONOMETRIC: _Kind(
        lambda params, z: np.abs(z - 1j * np.pi * np.round(z.imag / np.pi)),
        _trigonometric_e1,
        lambda params, s, flat, with_e1: (
            1.0 / np.tanh(s[0]) + 1.0 / np.tanh(s[1]),
            [_trigonometric_e1(params, v, range(1))[0] for v in s] if with_e1 else None,
        ),
    ),
    FunctionKind.ELLIPTIC: _Kind(
        _elliptic_distance,
        lambda params, z, orders: _e1_from_theta(
            _theta_derivs(z, params, orders[-1] + 1), orders
        ),
        _elliptic_phi,
    ),
}


# ---------------------------------------------------------------------------
# E1 and wp
# ---------------------------------------------------------------------------

def _wp(params, z, orders):
    """wp^(d)(z) for d in the range orders, from one E1 jet: wp = -E1' plus,
    in the elliptic kind, the lattice constant."""
    out = -_KINDS[params.kind].e1(params, z, range(orders[0] + 1, orders[-1] + 2))
    if params.kind is FunctionKind.ELLIPTIC and orders[0] == 0:
        out[0] += _theta_origin(params)[1]
    return out


def eisenstein_e1(z, params, deriv_order=0):
    r"""First Eisenstein function :math:`E_1(z)`, odd in z.

    Returns :math:`1/z`, :math:`\coth z` or :math:`\vartheta'(z)/\vartheta(z)`
    depending on the kind; ``deriv_order`` selects a z-derivative (term-wise
    differentiated series in the elliptic case, exact closed forms otherwise).
    """
    deriv_order = _as_index("deriv_order", deriv_order)
    if deriv_order < 0 or deriv_order > MAX_WP_DERIV_ORDER + 1:
        raise UnsupportedDerivOrder(
            f"E1 derivative order must be in [0, {MAX_WP_DERIV_ORDER + 1}]"
        )
    arr, scalar = _asarray(z)
    _off_lattice(params, ("E1 argument", arr))
    e1 = _KINDS[params.kind].e1(params, arr, range(deriv_order, deriv_order + 1))
    return _finish(e1[0], scalar)


def weierstrass_p(z, params, deriv_order=0):
    r"""Weierstrass function :math:`\wp(z)` or one of its derivatives.

    In every kind :math:`\wp(z) = -E_1'(z)`, which is :math:`1/z^2`
    (rational) and :math:`1/\sinh^2 z` (trigonometric).  The elliptic kind
    adds the lattice constant :math:`c(\tau) = \vartheta'''(0)/(3\vartheta'(0))`,
    chosen so that :math:`\wp(z) - 1/z^2 \to 0` at the origin.

    Parameters
    ----------
    z : complex or array_like
    params : LatticeParams
    deriv_order : int
        0 <= deriv_order <= MAX_WP_DERIV_ORDER.
    """
    deriv_order = _as_index("deriv_order", deriv_order)
    if deriv_order < 0 or deriv_order > MAX_WP_DERIV_ORDER:
        raise UnsupportedDerivOrder(
            f"wp derivative order must be in [0, {MAX_WP_DERIV_ORDER}], "
            f"got {deriv_order}"
        )
    arr, scalar = _asarray(z)
    _off_lattice(params, ("wp argument", arr))
    return _finish(_wp(params, arr, range(deriv_order, deriv_order + 1))[0], scalar)


# ---------------------------------------------------------------------------
# Kronecker function
# ---------------------------------------------------------------------------

def _phi_slots(eta, z, params):
    """The slots eta, z and eta + z, checked by one lattice_distance call on
    their concatenation, which is returned too.  Shapes that do not
    broadcast raise DimensionMismatch."""
    ea, za = _as_array("eta", eta), _as_array("z", z)
    try:
        slots = ea, za, ea + za
    except ValueError:
        raise DimensionMismatch(
            f"phi arguments of shapes {ea.shape} and {za.shape} do not broadcast"
        ) from None
    names = "phi eta argument", "phi z argument", "phi eta+z argument"
    return slots, _off_lattice(params, *zip(names, slots))


def kronecker_phi(eta, z, params):
    r"""Kronecker function :math:`\phi(\eta, z)`, symmetric in its slots.

    Returns :math:`1/\eta + 1/z`, :math:`\coth\eta + \coth z`, or
    :math:`\vartheta'(0)\vartheta(\eta+z)/(\vartheta(\eta)\vartheta(z))`
    per kind.  All of ``eta``, ``z`` and ``eta + z`` must be off-lattice.
    Broadcasts over array arguments; shapes that do not broadcast raise
    DimensionMismatch.
    """
    slots, flat = _phi_slots(eta, z, params)
    phi, _ = _KINDS[params.kind].phi(params, slots, flat, False)
    return _finish(phi, slots[2].ndim == 0)


def kronecker_phi_deta(eta, z, params):
    r"""Partial derivative :math:`\partial_\eta \phi(\eta, z)`.

    Evaluated through the closed form
    :math:`(E_1(\eta + z) - E_1(\eta))\,\phi(\eta, z)`, with E1 and phi
    from one evaluation on the slots :math:`\eta, z, \eta + z`.
    """
    slots, flat = _phi_slots(eta, z, params)
    phi, e1 = _KINDS[params.kind].phi(params, slots, flat, True)
    return _finish((e1[2] - e1[0]) * phi, slots[2].ndim == 0)


def _classical_parts(z, omegas, params):
    """E1(z), wp(z), phi(z, omegas) and d/deta phi(omegas, z) for the
    elliptic kind, from one lattice check and one theta series of order 2
    on z, omegas and omegas + z.  The last two carry a trailing omegas axis.
    """
    slots = z, omegas, z[..., None] + omegas
    names = "spectral parameter z", "phi z argument", "phi eta+z argument"
    th = _theta_derivs(_off_lattice(params, *zip(names, slots)), params, 2)
    t_z, t_w, t_zw = _split(th[0], slots)
    e1 = _e1_from_theta(th, range(2))
    (e1_z, e1_w, e1_zw), (de1_z, _, _) = _split(e1[0], slots), _split(e1[1], slots)
    thp0, c = _theta_origin(params)
    phi = thp0 * t_zw / (t_w * t_z[..., None])
    return e1_z, c - de1_z, phi, (e1_zw - e1_w) * phi


def fay_check(hbar, eta, z, w, params):
    r"""Residual of the Fay three-term identity for the Kronecker function.

    For generic arguments returns

    .. math::

        |\phi(\hbar, z)\phi(\eta, w) - \phi(\hbar - \eta, z)\phi(\eta, z + w)
         - \phi(\eta - \hbar, w)\phi(\hbar, z + w)|.

    When ``eta == hbar`` exactly, the difference :math:`\hbar - \eta`
    degenerates and the residual of the limiting form

    .. math::

        \phi(\eta, z)\phi(\eta, w) = \phi(\eta, z + w)\,
        (E_1(\eta) + E_1(z) + E_1(w) - E_1(z + w + \eta))

    is returned instead.

    Raises
    ------
    DegenerateArguments
        If ``hbar - eta`` is within the exclusion radius but not exactly zero.
    """
    return _alone(_fay_checks, (hbar, eta, z, w, params))


def _fay_checks(requests):
    """fay_check of each request (hbar, eta, z, w, params); the first
    RmxError met is raised.  The requests of one lattice take one call each
    of lattice_distance (on hbar - eta), kronecker_phi and eisenstein_e1."""
    def slots(hbar, eta, z, w, params):
        hbar, eta, z, w = map(_as_complex, ("hbar", "eta", "z", "w"), (hbar, eta, z, w))
        if eta == hbar:
            return params, [], [eta] * 3, [z, w, z + w], [eta, z, w, z + w + eta]
        return (params, [hbar - eta], [hbar, eta, hbar - eta, eta, eta - hbar, hbar],
                [z, w, z, z + w, w, z + w], [])

    def build(group):
        gaps, etas, zs, e1s = ([v for s in group for v in s[k]] for k in (1, 2, 3, 4))
        near = (group[0][0].lattice_distance(np.array(gaps)) < EXCLUSION_RADIUS).tolist()
        if True in near:
            raise DegenerateArguments(
                f"hbar - eta = {gaps[near.index(True)]} is inside the exclusion radius; "
                "pass eta == hbar exactly to select the degenerate form")
        p = iter(kronecker_phi(np.array(etas), np.array(zs), group[0][0]).tolist())
        e = iter(eisenstein_e1(np.array(e1s), group[0][0]).tolist())
        out = []
        for _, _, phis, _, e1 in group:
            q, r = [next(p) for _ in phis], [next(e) for _ in e1]
            out.append(abs(q[0] * q[1] - (q[2] * (r[0] + r[1] + r[2] - r[3]) if r
                                          else q[2] * q[3] + q[4] * q[5])))
        return out

    return _grouped(build, [slots(*request) for request in requests], lambda s: s[0])


# ---------------------------------------------------------------------------
# cyclic sums
# ---------------------------------------------------------------------------

def scalar_cyclic_sum(n, a, eta, points, params):
    r"""Cyclic Kronecker-function sum over all (n-1)! orderings.

    Computes

    .. math::

        \sum_{(i_1, \dots, i_{n-1})} \phi(\eta, z_a - z_{i_1})
        \phi(\eta, z_{i_1} - z_{i_2}) \cdots \phi(\eta, z_{i_{n-1}} - z_a),

    the sum running over all orderings of :math:`\{1..n\}\setminus\{a\}`.
    For :math:`n \ge 3` the result equals :math:`(-1)^n \wp^{(n-2)}(\eta)`
    independently of the points; for n = 2 it is the single product
    :math:`\phi(\eta, z_1 - z_2)\phi(\eta, z_2 - z_1) = \wp(\eta) - \wp(z_{12})`.
    A subset DP (Held-Karp) in plain complex arithmetic sums the chains
    from a through each set of sites by their last site: (n-1)(n-2) 2^(n-3)
    + 2(n-1) products, against (n-1)! n for the literal sum.

    Parameters
    ----------
    n : int
        Number of points, n >= 2.
    a : int
        Outer index, 1-based.
    eta : complex
    points : sequence of n complex numbers
        Pairwise differences must be off-lattice.
    params : LatticeParams
    """
    return _alone(_scalar_cyclic_sums, (n, a, eta, points, params))


def _scalar_cyclic_sums(requests):
    """scalar_cyclic_sum of each request (n, a, eta, points, params); the
    first RmxError met is raised.  The phi values of the requests of one
    lattice come from one kronecker_phi call, then each runs the DP alone."""
    def screen(n, a, eta, points, params):
        n, a = _as_index("n", n), _as_index("a", a)
        if n < 2 or not 1 <= a <= n:
            raise IndexOutOfRange(f"cyclic sum needs n >= 2, 1 <= a <= n; got n={n}, a={a}")
        if len(points) != n:
            raise DimensionMismatch(f"expected {n} points, got {len(points)}")
        pts = np.array([_as_complex("a point", p) for p in points])
        diffs = (pts[:, None] - pts)[~np.eye(n, dtype=bool)]
        return params, n, a, np.full(len(diffs), _as_complex("eta", eta)), diffs

    def phis(group):  # one kronecker_phi call, split into the requests' values
        flat = kronecker_phi(*(np.concatenate([s[k] for s in group]) for k in (3, 4)),
                             group[0][0])
        return np.split(flat, np.cumsum([len(s[4]) for s in group])[:-1])

    screened = [screen(*request) for request in requests]
    out = []
    for (_, n, a, _, _), values in zip(screened, _grouped(phis, screened, lambda s: s[0])):
        values = iter(values.tolist())  # phi[i][j] = phi(eta, z_i - z_j)
        phi = [[next(values) if i != j else 0j for j in range(n)] for i in range(n)]
        ends = [[0j] * n for _ in range(1 << n)]
        ends[1 << a - 1][a - 1] = 1
        for mask in range(1 << a - 1, 1 << n):
            for j, v in enumerate(ends[mask]):
                if v:  # zero unless mask holds a and j
                    for k in range(n):
                        if not mask >> k & 1:
                            ends[mask | 1 << k][k] += v * phi[j][k]
        out.append(sum(v * phi[k][a - 1] for k, v in enumerate(ends[-1]) if v))
    return out
