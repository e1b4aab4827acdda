r"""Quantum R-matrices in the fundamental representation of gl(N).

Two families are provided, both acting on :math:`\mathbb{C}^N \otimes
\mathbb{C}^N` and depending on a spectral parameter z and a quantization
parameter hbar:

* Yang (rational):  :math:`R(z, \hbar) = \hbar^{-1}\,\mathrm{Id} + N z^{-1} P`
  with P the permutation operator;
* elliptic (Baxter-Belavin type):

  .. math::

      R(z, \hbar) = \sum_{\alpha \in \mathbb{Z}_N^2}
          e^{2\pi i \alpha_2 z / N}\,
          \phi\bigl(z, \omega_\alpha + \hbar\bigr)\,
          T_\alpha \otimes T_{-\alpha},
      \qquad \omega_\alpha = \frac{\alpha_1 + \alpha_2 \tau}{N},

  where :math:`T_\alpha` is the finite Heisenberg pair basis built from
  the clock and shift matrices.

Also here: the classical limit (coefficients of the expansion
:math:`R = \hbar^{-1}\mathrm{Id} + r + \hbar\, m + O(\hbar^2)` extracted by
contour quadrature and cross-checked against closed forms), the hbar
derivative with its three-site structural identity, and the same-site
degeneration of R, which collapses to a scalar with closed form
:math:`N \phi(N\hbar, z/N)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    ContourHitsPole,
    ExpansionFailed,
    NonEllipticKind,
    QuadratureNotConverged,
    UsageError,
    ZeroArgument,
)
from .special_functions import (
    FunctionKind,
    LatticeParams,
    eisenstein_e1,
    kronecker_phi,
    kronecker_phi_deta,
    weierstrass_p,
)
from .tensor_ops import _product, frobenius_distance, permutation_operator

__all__ = [
    "RMatrixKind",
    "RMatrixSpec",
    "t_basis",
    "structure_phase",
    "yang_r",
    "belavin_r",
    "r_matrix",
    "r_same_site",
    "same_site_closed_form",
    "r_deriv_hbar",
    "HbarDerivative",
    "classical_expansion",
    "classical_closed_form",
    "ClassicalPair",
]


class RMatrixKind(str, Enum):
    YANG = "yang"
    BELAVIN = "belavin"


@dataclass(frozen=True)
class RMatrixSpec:
    """Family, rank, lattice context and quantization parameter of an R-matrix.

    Yang requires a rational LatticeParams, the elliptic family an elliptic
    one.  For the elliptic family both hbar and N*hbar must stay away from
    the lattice (the identity right-hand sides evaluate wp at N*hbar).
    """

    kind: RMatrixKind
    site_dim: int
    lattice: LatticeParams
    hbar: complex

    def __post_init__(self):
        object.__setattr__(self, "kind", RMatrixKind(self.kind))
        object.__setattr__(self, "hbar", complex(self.hbar))
        if self.site_dim < 1:
            raise UsageError(f"site_dim must be >= 1, got {self.site_dim}")
        if self.kind is RMatrixKind.BELAVIN:
            if self.lattice.kind is not FunctionKind.ELLIPTIC:
                raise NonEllipticKind(
                    "the elliptic R-matrix family needs an elliptic lattice, "
                    f"got kind {self.lattice.kind.value}"
                )
            self.validate_hbar(self.hbar)
        else:
            if self.lattice.kind is not FunctionKind.RATIONAL:
                raise UsageError(
                    "the Yang family pairs with the rational kind, got "
                    f"{self.lattice.kind.value}"
                )
            if self.hbar == 0:
                raise ZeroArgument("Yang R-matrix needs hbar != 0")

    def validate_hbar(self, hbar):
        if self.kind is RMatrixKind.YANG:
            if hbar == 0:
                raise ZeroArgument("Yang R-matrix needs hbar != 0")
            return
        self.lattice.require_off_lattice(hbar, "hbar")
        self.lattice.require_off_lattice(self.site_dim * hbar, "N*hbar")


# ---------------------------------------------------------------------------
# finite Heisenberg pair basis
# ---------------------------------------------------------------------------

def t_basis(a1, a2, N):
    """Basis matrix indexed by an integer pair, size N.

    Built as exp(i pi a1 a2 / N) Q^a1 L^a2 from the clock matrix
    Q = diag(1, w, ..., w^(N-1)), w = exp(2 pi i / N), and the shift L
    with L e_k = e_(k-1 mod N).  The phase uses the raw integers while the
    matrix powers reduce mod N, so that products satisfy

        T_a T_b = exp(i pi (b1 a2 - b2 a1) / N) T_(a+b)

    with unreduced index arithmetic, and T_a T_(-a) = Id.
    """
    if N < 1:
        raise UsageError(f"N must be >= 1, got {N}")
    a1, a2 = int(a1), int(a2)
    omega = np.exp(2j * np.pi / N)
    q = np.diag(omega ** np.arange(N))
    shift = np.zeros((N, N), dtype=complex)
    for k in range(N):
        shift[(k - 1) % N, k] = 1.0
    phase = np.exp(1j * np.pi * a1 * a2 / N)
    return phase * np.linalg.matrix_power(q, a1 % N) @ np.linalg.matrix_power(
        shift, a2 % N
    )


def structure_phase(alpha, beta, N):
    """Scalar kappa with T_alpha T_beta = kappa T_(alpha+beta) (raw integer sum)."""
    return complex(np.exp(1j * np.pi * (beta[0] * alpha[1] - beta[1] * alpha[0]) / N))


def _alpha_grid(N):
    return [(a1, a2) for a1 in range(N) for a2 in range(N)]


@lru_cache(maxsize=None)
def _tt_stack(N):
    """Stack of T_alpha tensor T_(-alpha), shape (N^2, N^2, N^2), grid order."""
    return np.array([
        np.kron(t_basis(a1, a2, N), t_basis(-a1, -a2, N))
        for a1, a2 in _alpha_grid(N)
    ])


# ---------------------------------------------------------------------------
# the two families
# ---------------------------------------------------------------------------

def yang_r(z, hbar, N):
    """Yang R-matrix Id/hbar + (N/z) P on C^N tensor C^N."""
    if z == 0:
        raise ZeroArgument("Yang R-matrix needs z != 0")
    if hbar == 0:
        raise ZeroArgument("Yang R-matrix needs hbar != 0")
    dim = N * N
    return np.eye(dim, dtype=complex) / hbar + (N / z) * permutation_operator(N)


def _belavin_weights(spec, z, hbars):
    """Scalar weights of the T tensor T stack at each hbar, shape (K, N^2)."""
    N = spec.site_dim
    lat = spec.lattice
    lat.require_off_lattice(z, "spectral parameter z")
    alphas = np.array(_alpha_grid(N), dtype=float)
    omegas = (alphas[:, 0] + alphas[:, 1] * lat.tau) / N
    hb = np.asarray(hbars, dtype=complex)
    args = omegas[None, :] + hb[:, None]
    phis = kronecker_phi(complex(z), args, lat)
    return np.exp(2j * np.pi * alphas[None, :, 1] * z / N) * phis


def belavin_r(spec, z, hbar=None):
    """Elliptic R-matrix at spectral parameter z, shape (N^2, N^2)."""
    if hbar is None:
        hbar = spec.hbar
    else:
        spec.validate_hbar(hbar)
    w = _belavin_weights(spec, complex(z), np.array([hbar], dtype=complex))
    return np.einsum("a,aij->ij", w[0], _tt_stack(spec.site_dim))


def r_matrix(spec, z, hbar=None):
    """Evaluate the R-matrix of the given spec, shape (N^2, N^2).

    hbar overrides spec.hbar when given (validated the same way).
    """
    if hbar is None:
        hbar = spec.hbar
    else:
        spec.validate_hbar(hbar)
    if spec.kind is RMatrixKind.YANG:
        return yang_r(complex(z), complex(hbar), spec.site_dim)
    return belavin_r(spec, complex(z), hbar)


# ---------------------------------------------------------------------------
# same-site degeneration
# ---------------------------------------------------------------------------

def same_site_closed_form(spec, z, hbar=None):
    """Scalar value of R with both tensor legs on one site.

    Yang: 1/hbar + N^2/z.  Elliptic: N phi(N hbar, z/N).
    """
    if hbar is None:
        hbar = spec.hbar
    N = spec.site_dim
    if spec.kind is RMatrixKind.YANG:
        if z == 0:
            raise ZeroArgument("same-site value needs z != 0")
        return 1.0 / hbar + N * N / z
    return N * kronecker_phi(N * hbar, z / N, spec.lattice)


def r_same_site(spec, z, hbar=None, tol=1e-8):
    """R-matrix with both legs on a single site, an N x N scalar matrix.

    The sum collapses because T_alpha T_(-alpha) = Id.  The result is
    compared against the closed form; a gross mismatch raises
    :class:`ExpansionFailed`.
    """
    if hbar is None:
        hbar = spec.hbar
    else:
        spec.validate_hbar(hbar)
    N = spec.site_dim
    if spec.kind is RMatrixKind.YANG:
        mat = np.eye(N, dtype=complex) / hbar + (spec.site_dim / z) * (
            N * np.eye(N, dtype=complex)
        )
    else:
        w = _belavin_weights(spec, complex(z), np.array([hbar], dtype=complex))[0]
        mat = np.zeros((N, N), dtype=complex)
        for coeff, (a1, a2) in zip(w, _alpha_grid(N)):
            mat += coeff * (t_basis(a1, a2, N) @ t_basis(-a1, -a2, N))
    closed = same_site_closed_form(spec, z, hbar)
    resid = frobenius_distance(mat, closed * np.eye(N))
    if resid > tol:
        raise ExpansionFailed(
            f"same-site matrix disagrees with its closed form, residual {resid:.3e}"
        )
    return mat


# ---------------------------------------------------------------------------
# hbar derivative
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HbarDerivative:
    """d/dhbar of the R-matrix plus the residual of its three-site structure.

    structural_residual measures, on three sites (a, b, c) with c auxiliary,

        dR_ab/dhbar = R_ab r_ac + r_cb R_ab - R_ac R_cb,

    where r is the classical half of the expansion.  The right side does
    not depend on the choice of c or of its point.
    """

    matrix: np.ndarray
    structural_residual: float


def _deriv_hbar_matrix(spec, z, hbar):
    N = spec.site_dim
    if spec.kind is RMatrixKind.YANG:
        dim = N * N
        return -np.eye(dim, dtype=complex) / (hbar * hbar)
    lat = spec.lattice
    alphas = np.array(_alpha_grid(N), dtype=float)
    omegas = (alphas[:, 0] + alphas[:, 1] * lat.tau) / N
    args = omegas + hbar
    # d/dhbar phi(z, w + hbar) is the slot derivative of phi at (w + hbar, z)
    dphis = kronecker_phi_deta(args, complex(z), lat)
    w = np.exp(2j * np.pi * alphas[:, 1] * z / N) * dphis
    return np.einsum("a,aij->ij", w, _tt_stack(N))


def r_deriv_hbar(spec, z_a, z_b, aux_point=None):
    """hbar derivative of R evaluated at z_a - z_b, with structural check.

    Parameters
    ----------
    spec : RMatrixSpec
    z_a, z_b : complex
        The derivative matrix is taken at the difference z_a - z_b.
    aux_point : complex, optional
        Position of the auxiliary third site in the structural identity;
        a fixed generic default is used when omitted.  The residual is
        invariant under this choice.

    Returns
    -------
    HbarDerivative
    """
    z_a, z_b = complex(z_a), complex(z_b)
    if aux_point is None:
        aux_point = (z_a + z_b) / 2 + 0.1566 + 0.0873j
    z_c = complex(aux_point)
    hbar = spec.hbar
    deriv = _deriv_hbar_matrix(spec, z_a - z_b, hbar)

    r_ab = (r_matrix(spec, z_a - z_b), 1, 2)
    r_ac = (r_matrix(spec, z_a - z_c), 1, 3)
    r_cb = (r_matrix(spec, z_c - z_b), 3, 2)
    cl_ac = (classical_closed_form(spec, z_a - z_c)[0], 1, 3)
    cl_cb = (classical_closed_form(spec, z_c - z_b)[0], 3, 2)

    lhs = _product(3, (deriv, 1, 2))
    rhs = (
        _product(3, r_ab, cl_ac)
        + _product(3, cl_cb, r_ab)
        - _product(3, r_ac, r_cb)
    )
    return HbarDerivative(deriv, frobenius_distance(lhs, rhs))


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalPair:
    """Classical coefficients of R = Id/hbar + r + hbar m + O(hbar^2).

    Attributes
    ----------
    r, m : ndarray
        Quadrature values of the two finite coefficients.
    hbar_inverse_residual : float
        Distance of the extracted pole coefficient from the identity.
    extraction_residual : float
        Change of the coefficients when the contour node count doubles.
    analytic_residual : float
        Distance from the closed-form expressions for r and m.
    """

    r: np.ndarray
    m: np.ndarray
    hbar_inverse_residual: float
    extraction_residual: float
    analytic_residual: float


def classical_closed_form(spec, z):
    """Closed forms of (r, m) at spectral parameter z."""
    N = spec.site_dim
    dim = N * N
    if spec.kind is RMatrixKind.YANG:
        if z == 0:
            raise ZeroArgument("classical coefficients need z != 0")
        return (N / z) * permutation_operator(N), np.zeros((dim, dim), dtype=complex)
    lat = spec.lattice
    lat.require_off_lattice(z, "spectral parameter z")
    e1 = eisenstein_e1(z, lat)
    wp = weierstrass_p(z, lat)
    r = e1 * np.eye(dim, dtype=complex)
    m = 0.5 * (e1 * e1 - wp) * np.eye(dim, dtype=complex)
    if N > 1:
        alphas = np.array(_alpha_grid(N), dtype=float)[1:]
        omegas = (alphas[:, 0] + alphas[:, 1] * lat.tau) / N
        coeffs = np.exp(2j * np.pi * alphas[:, 1] * z / N)
        stack = _tt_stack(N)[1:]
        r = r + np.einsum(
            "a,aij->ij", coeffs * kronecker_phi(complex(z), omegas, lat), stack
        )
        m = m + np.einsum(
            "a,aij->ij", coeffs * kronecker_phi_deta(omegas, complex(z), lat), stack
        )
    return r, m


def _laurent_coefficients(spec, z, radius, points):
    nodes = radius * np.exp(2j * np.pi * np.arange(points) / points)
    if spec.kind is RMatrixKind.YANG:
        dim = spec.site_dim ** 2
        vals = np.eye(dim, dtype=complex)[None] / nodes[:, None, None] + (
            spec.site_dim / z
        ) * permutation_operator(spec.site_dim)[None]
    else:
        weights = _belavin_weights(spec, z, nodes)
        vals = np.einsum("ka,aij->kij", weights, _tt_stack(spec.site_dim))
    out = {}
    for j in (-1, 0, 1):
        out[j] = np.einsum("k,kij->ij", nodes ** (-j), vals) / points
    return out


def _default_radius(spec, z):
    # Yang is pole-free in hbar away from 0, so a fixed O(1) circle keeps
    # the hbar^(-2) roundoff amplification of the quadrature small
    if spec.kind is RMatrixKind.YANG:
        return 0.5
    tau = spec.lattice.tau
    return 0.025 * min(1.0, abs(tau), abs(1.0 + tau))


def classical_expansion(
    spec, z, quadrature_points=32, contour_radius=None, refine_tol=1e-8
):
    """Extract r and m from R by quadrature on an hbar circle around 0.

    The Laurent coefficients are trapezoid sums over ``quadrature_points``
    contour nodes; the run is repeated with twice the nodes and the change
    is reported (and must stay below ``refine_tol``).  The hbar pole
    coefficient is checked against the identity and (r, m) against their
    closed forms.

    Raises
    ------
    ContourHitsPole
        If the contour radius reaches the nearest hbar pole of R.
    QuadratureNotConverged
        If doubling the node count still moves the coefficients.
    """
    z = complex(z)
    if contour_radius is None:
        contour_radius = _default_radius(spec, z)
    if contour_radius <= 0:
        raise ContourHitsPole("contour radius must be positive")
    if spec.kind is RMatrixKind.BELAVIN:
        # R has its hbar poles on the lattice (Z + tau Z) / N, so the
        # nearest one besides hbar = 0 lies a shortest period over N away;
        # at N = 1 these are the lattice points themselves
        nearest = spec.lattice.shortest_period / spec.site_dim
        if contour_radius >= 0.9 * nearest:
            raise ContourHitsPole(
                f"contour radius {contour_radius} reaches the hbar pole "
                f"at distance {nearest:.6g}"
            )
    if quadrature_points < 8:
        raise QuadratureNotConverged("need at least 8 quadrature points")

    coarse = _laurent_coefficients(spec, z, contour_radius, quadrature_points)
    fine = _laurent_coefficients(spec, z, contour_radius, 2 * quadrature_points)
    extraction = max(frobenius_distance(coarse[j], fine[j]) for j in (-1, 0, 1))
    if extraction > refine_tol:
        raise QuadratureNotConverged(
            f"coefficient change {extraction:.3e} under node doubling "
            f"exceeds {refine_tol}"
        )

    dim = spec.site_dim ** 2
    pole_resid = frobenius_distance(fine[-1], np.eye(dim, dtype=complex))
    r_an, m_an = classical_closed_form(spec, z)
    analytic = max(
        frobenius_distance(fine[0], r_an), frobenius_distance(fine[1], m_an)
    )
    return ClassicalPair(
        r=fine[0],
        m=fine[1],
        hbar_inverse_residual=pole_resid,
        extraction_residual=extraction,
        analytic_residual=analytic,
    )
