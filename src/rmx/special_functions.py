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
reject arguments within ``exclusion_radius`` of a pole of the defining
expression, raising :class:`~rmx.errors.PoleProximity`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb, factorial

import numpy as np
from numpy.polynomial import polynomial as _poly

from .errors import (
    DegenerateArguments,
    DimensionMismatch,
    IndexOutOfRange,
    NonEllipticKind,
    PoleProximity,
    SeriesNotConverged,
    UnsupportedDerivOrder,
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
    "cyclic_orderings",
    "scalar_cyclic_sum",
    "MAX_WP_DERIV_ORDER",
]

DEFAULT_SERIES_TOL = 1e-15
DEFAULT_MAX_TERMS = 200
DEFAULT_EXCLUSION_RADIUS = 1e-6

#: Highest supported derivative order of weierstrass_p (covers identities up
#: to n = 8, which need wp^(6)).
MAX_WP_DERIV_ORDER = 6

_SERIES_CHUNK = 16


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
        and is ignored otherwise.
    series_tol : float
        Relative truncation target for the theta q-series.
    max_terms : int
        Safety cap on q-series terms.
    exclusion_radius : float
        Arguments closer than this to a pole of the defining expression
        are rejected.
    """

    kind: FunctionKind
    tau: complex = 1j
    series_tol: float = DEFAULT_SERIES_TOL
    max_terms: int = DEFAULT_MAX_TERMS
    exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS

    def __post_init__(self):
        object.__setattr__(self, "kind", FunctionKind(self.kind))
        object.__setattr__(self, "tau", complex(self.tau))
        if self.kind is FunctionKind.ELLIPTIC and not self.tau.imag > 0:
            raise NonEllipticKind(
                f"elliptic kind needs Im(tau) > 0, got tau = {self.tau}"
            )
        if not self.series_tol > 0:
            raise ValueError(f"series_tol must be positive, got {self.series_tol}")
        if self.max_terms < 8:
            raise ValueError(f"max_terms must be at least 8, got {self.max_terms}")
        if not self.exclusion_radius > 0:
            raise ValueError("exclusion_radius must be positive")
        if self.kind is FunctionKind.ELLIPTIC:
            object.__setattr__(self, "_cell", _reduced_cell(self.tau))

    @property
    def shortest_period(self):
        """Length of the shortest nonzero vector of Z + tau Z (elliptic kind)."""
        return abs(self._cell[0])

    def lattice_distance(self, z):
        """Distance from ``z`` to the nearest pole/lattice point of this kind.

        Elliptic kind: the nearest corner of the reduced cell around z.
        """
        z = np.asarray(z, dtype=complex)
        if self.kind is FunctionKind.RATIONAL:
            return np.abs(z)
        if self.kind is FunctionKind.TRIGONOMETRIC:
            return np.abs(z - 1j * np.pi * np.round(z.imag / np.pi))
        u, v, du, dv = self._cell
        r = z - (np.floor((z * du).imag) * u + np.floor((z * dv).imag) * v)
        return np.minimum(
            np.minimum(np.abs(r), np.abs(r - u)),
            np.minimum(np.abs(r - v), np.abs(r - u - v)),
        )

    def require_off_lattice(self, z, what="argument"):
        """Raise :class:`PoleProximity` if any entry of ``z`` is too close to a pole."""
        d = self.lattice_distance(z)
        if np.any(d < self.exclusion_radius):
            zs = np.asarray(z, dtype=complex)
            bad = zs.reshape(-1)[np.argmin(np.asarray(d).reshape(-1))]
            raise PoleProximity(
                f"{what} {bad} is within {self.exclusion_radius} of a "
                f"{self.kind.value} lattice point"
            )


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


def _asarray(x):
    arr = np.asarray(x, dtype=complex)
    return arr, arr.ndim == 0


def _finish(arr, scalar):
    return complex(arr[()]) if scalar else arr


# ---------------------------------------------------------------------------
# theta series
# ---------------------------------------------------------------------------

def _theta_derivs(z, tau, max_order, series_tol, max_terms):
    """z-derivatives of theta, orders 0..max_order, shape (max_order+1,) + z.shape.

    Terms are summed in chunks; the series stops once the trailing three
    term magnitudes all fall below series_tol * (|partial sum| + 1).
    """
    z = np.asarray(z, dtype=complex)
    zdim = z.ndim
    ds = np.arange(max_order + 1)
    parity = ((-1.0) ** ds).reshape((max_order + 1, 1) + (1,) * zdim)
    sums = np.zeros((max_order + 1,) + z.shape, dtype=complex)

    def kshape(a):
        return a.reshape(a.shape + (1,) * zdim)

    k0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k0 < max_terms:
            ks = np.arange(k0, min(k0 + _SERIES_CHUNK, max_terms))
            kp = ks + 0.5
            expo = 1j * np.pi * tau * kp * kp
            iu = 2j * np.pi * kp
            ep = np.exp(kshape(expo) + kshape(iu) * z[None])
            em = np.exp(kshape(expo) - kshape(iu) * z[None])
            powers = (iu[None, :] ** ds[:, None]).reshape(
                (max_order + 1, len(ks)) + (1,) * zdim
            )
            sign = ((-1.0) ** ks).reshape((1, len(ks)) + (1,) * zdim)
            terms = sign * powers * (ep[None] - parity * em[None]) / 1j
            sums = sums + terms.sum(axis=1)
            if not np.all(np.isfinite(sums)):
                raise SeriesNotConverged(
                    "theta series overflowed; argument too far from the "
                    "fundamental cell"
                )
            tail = np.abs(terms[:, -3:])
            bound = series_tol * (np.abs(sums)[:, None] + 1.0)
            if np.all(tail <= bound):
                return sums
            k0 += _SERIES_CHUNK
    raise SeriesNotConverged(
        f"theta series did not meet tol={series_tol} within {max_terms} terms"
    )


@lru_cache(maxsize=128)
def _theta_origin(tau, series_tol, max_terms):
    """(theta'(0), theta'''(0)) for the given modular parameter."""
    d = _theta_derivs(np.complex128(0.0), tau, 3, series_tol, max_terms)
    return complex(d[1]), complex(d[3])


def _wp_lattice_constant(params):
    # c(tau) = theta'''(0) / (3 theta'(0)) makes wp(z) - 1/z^2 vanish at 0
    d1, d3 = _theta_origin(params.tau, params.series_tol, params.max_terms)
    return d3 / (3.0 * d1)


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
        If ``max_terms`` is reached before the truncation criterion.
    """
    if params.kind is not FunctionKind.ELLIPTIC:
        raise NonEllipticKind(f"theta requires elliptic kind, got {params.kind.value}")
    if deriv_order < 0:
        raise UnsupportedDerivOrder("deriv_order must be non-negative")
    arr, scalar = _asarray(z)
    out = _theta_derivs(arr, params.tau, deriv_order, params.series_tol, params.max_terms)
    return _finish(out[deriv_order], scalar)


# ---------------------------------------------------------------------------
# E1 and wp
# ---------------------------------------------------------------------------

def _e1_derivs_elliptic(z, params, max_order):
    """E1 and derivatives up to max_order from the log-derivative recursion."""
    th = _theta_derivs(z, params.tau, max_order + 1, params.series_tol, params.max_terms)
    out = np.zeros_like(th[: max_order + 1])
    for m in range(max_order + 1):
        s = th[m + 1].copy()
        for j in range(m):
            s -= comb(m, j) * out[j] * th[m - j]
        out[m] = s / th[0]
    return out


@lru_cache(maxsize=None)
def _coth_poly(order):
    """Ascending coefficients of the order-th derivative of coth, a polynomial in coth.

    d/dz coth = 1 - coth^2, so differentiation maps p(c) to p'(c) (1 - c^2).
    """
    if order == 0:
        return (0.0, 1.0)
    prev = np.asarray(_coth_poly(order - 1))
    return tuple(_poly.polymul(_poly.polyder(prev), (1.0, 0.0, -1.0)))


def _e1(z, params, d):
    """d-th z-derivative of E1 at the off-lattice array z, in the kind of params."""
    if params.kind is FunctionKind.RATIONAL:
        return (-1.0) ** d * factorial(d) * z ** (-d - 1)
    if params.kind is FunctionKind.TRIGONOMETRIC:
        return _poly.polyval(1.0 / np.tanh(z), np.asarray(_coth_poly(d)))
    return _e1_derivs_elliptic(z, params, d)[d]


def eisenstein_e1(z, params, deriv_order=0):
    r"""First Eisenstein function :math:`E_1(z)`, odd in z.

    Returns :math:`1/z`, :math:`\coth z` or :math:`\vartheta'(z)/\vartheta(z)`
    depending on the kind; ``deriv_order`` selects a z-derivative (term-wise
    differentiated series in the elliptic case, exact closed forms otherwise).
    """
    if deriv_order < 0 or deriv_order > MAX_WP_DERIV_ORDER + 1:
        raise UnsupportedDerivOrder(
            f"E1 derivative order must be in [0, {MAX_WP_DERIV_ORDER + 1}]"
        )
    arr, scalar = _asarray(z)
    params.require_off_lattice(arr, "E1 argument")
    return _finish(_e1(arr, params, deriv_order), scalar)


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
        0 <= deriv_order <= 6.
    """
    if deriv_order < 0 or deriv_order > MAX_WP_DERIV_ORDER:
        raise UnsupportedDerivOrder(
            f"wp derivative order must be in [0, {MAX_WP_DERIV_ORDER}], "
            f"got {deriv_order}"
        )
    arr, scalar = _asarray(z)
    params.require_off_lattice(arr, "wp argument")
    out = -_e1(arr, params, deriv_order + 1)
    if params.kind is FunctionKind.ELLIPTIC and deriv_order == 0:
        out = out + _wp_lattice_constant(params)
    return _finish(out, scalar)


# ---------------------------------------------------------------------------
# Kronecker function
# ---------------------------------------------------------------------------

def kronecker_phi(eta, z, params):
    r"""Kronecker function :math:`\phi(\eta, z)`, symmetric in its slots.

    Returns :math:`1/\eta + 1/z`, :math:`\coth\eta + \coth z`, or
    :math:`\vartheta'(0)\vartheta(\eta+z)/(\vartheta(\eta)\vartheta(z))`
    per kind.  All of ``eta``, ``z`` and ``eta + z`` must be off-lattice.
    Broadcasts over array arguments.
    """
    ea, es = _asarray(eta)
    za, zs = _asarray(z)
    params.require_off_lattice(ea, "phi eta argument")
    params.require_off_lattice(za, "phi z argument")
    params.require_off_lattice(ea + za, "phi eta+z argument")
    if params.kind is FunctionKind.RATIONAL:
        out = 1.0 / ea + 1.0 / za
    elif params.kind is FunctionKind.TRIGONOMETRIC:
        out = 1.0 / np.tanh(ea) + 1.0 / np.tanh(za)
    else:
        tol, cap = params.series_tol, params.max_terms
        thp0, _ = _theta_origin(params.tau, tol, cap)
        num = _theta_derivs(ea + za, params.tau, 0, tol, cap)[0]
        den = (
            _theta_derivs(ea, params.tau, 0, tol, cap)[0]
            * _theta_derivs(za, params.tau, 0, tol, cap)[0]
        )
        out = thp0 * num / den
    return _finish(out, es and zs)


def kronecker_phi_deta(eta, z, params):
    r"""Partial derivative :math:`\partial_\eta \phi(\eta, z)`.

    Evaluated through the closed form
    :math:`(E_1(\eta + z) - E_1(\eta))\,\phi(\eta, z)`.
    """
    ea, es = _asarray(eta)
    za, zs = _asarray(z)
    out = (
        eisenstein_e1(ea + za, params) - eisenstein_e1(ea, params)
    ) * kronecker_phi(ea, za, params)
    arr = np.asarray(out)
    return _finish(arr, es and zs)


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
    hbar, eta, z, w = complex(hbar), complex(eta), complex(z), complex(w)
    if eta == hbar:
        lhs = kronecker_phi(eta, z, params) * kronecker_phi(eta, w, params)
        rhs = kronecker_phi(eta, z + w, params) * (
            eisenstein_e1(eta, params)
            + eisenstein_e1(z, params)
            + eisenstein_e1(w, params)
            - eisenstein_e1(z + w + eta, params)
        )
        return abs(lhs - rhs)
    if params.lattice_distance(hbar - eta) < params.exclusion_radius:
        raise DegenerateArguments(
            f"hbar - eta = {hbar - eta} is inside the exclusion radius; "
            "pass eta == hbar exactly to select the degenerate form"
        )
    lhs = kronecker_phi(hbar, z, params) * kronecker_phi(eta, w, params)
    rhs = kronecker_phi(hbar - eta, z, params) * kronecker_phi(eta, z + w, params) + (
        kronecker_phi(eta - hbar, w, params) * kronecker_phi(hbar, z + w, params)
    )
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# cyclic sums
# ---------------------------------------------------------------------------

def cyclic_orderings(n, a):
    """Lexicographic list of the (n-1)! orderings of {1..n} minus the outer index.

    Indices are 1-based; each ordering is a tuple of length n-1.
    """
    if not 1 <= a <= n:
        raise IndexOutOfRange(f"outer index {a} not in 1..{n}")
    others = [i for i in range(1, n + 1) if i != a]
    return list(itertools.permutations(others))


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
    if n < 2:
        raise IndexOutOfRange(f"cyclic sum needs n >= 2, got {n}")
    if len(points) != n:
        raise DimensionMismatch(f"expected {n} points, got {len(points)}")
    pts = np.asarray(points, dtype=complex)
    orderings = cyclic_orderings(n, a)

    pair_idx = [(i, j) for i in range(n) for j in range(n) if i != j]
    diffs = np.array([pts[i] - pts[j] for i, j in pair_idx])
    vals = kronecker_phi(complex(eta), diffs, params)
    table = dict(zip(pair_idx, np.atleast_1d(vals)))

    total = 0.0 + 0.0j
    a0 = a - 1
    for ordering in orderings:
        chain = (a0,) + tuple(i - 1 for i in ordering) + (a0,)
        term = 1.0 + 0.0j
        for u, v in zip(chain[:-1], chain[1:]):
            term *= table[(u, v)]
        total += term
    return total
