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

import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    ContourHitsPole,
    DimensionMismatch,
    ExpansionFailed,
    NonEllipticKind,
    QuadratureNotConverged,
    SeriesNotConverged,
    UsageError,
    ZeroArgument,
    _alone,
    _as_array,
    _as_complex,
    _as_count,
    _as_index,
    _grouped,
)
from .special_functions import (
    FunctionKind,
    LatticeParams,
    _classical_parts,
    _off_lattice,
    kronecker_phi,
    kronecker_phi_deta,
)
from .tensor_ops import _plan_sides, _probe_jobs, frobenius_distance, permutation_operator

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

# largest Frobenius distance r_same_site allows from the closed form
_SAME_SITE_TOL = 1e-8
# largest coefficient change classical_expansion allows under node doubling
_REFINE_TOL = 1e-8


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
        object.__setattr__(self, "hbar", _as_complex("hbar", self.hbar))
        object.__setattr__(self, "site_dim", _as_count("site_dim", self.site_dim, 1))
        if self.kind is RMatrixKind.BELAVIN:
            if self.lattice.kind is not FunctionKind.ELLIPTIC:
                raise NonEllipticKind(
                    "the elliptic R-matrix family needs an elliptic lattice, "
                    f"got kind {self.lattice.kind.value}"
                )
        elif self.lattice.kind is not FunctionKind.RATIONAL:
            raise UsageError(
                "the Yang family pairs with the rational kind, got "
                f"{self.lattice.kind.value}"
            )
        self.validate_hbar(self.hbar)

    def validate_hbar(self, hbar):
        """Check a quantization parameter, or an array of them, for this spec."""
        hbar = _as_array("hbar", hbar)
        if self.kind is RMatrixKind.YANG:
            _check_yang_argument("hbar", hbar)
            return
        _off_lattice(self.lattice, ("hbar", hbar), ("N*hbar", self.site_dim * hbar))


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
    N = _as_count("N", N, 1)
    a1, a2 = _as_index("a1", a1), _as_index("a2", a2)
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
    N = _as_count("N", N, 1)
    a = [_as_index(f"alpha[{i}]", alpha[i]) for i in (0, 1)]
    b = [_as_index(f"beta[{i}]", beta[i]) for i in (0, 1)]
    return complex(np.exp(1j * np.pi * (b[0] * a[1] - b[1] * a[0]) / N))


def _alpha_grid(N):
    return [(a1, a2) for a1 in range(N) for a2 in range(N)]


@lru_cache(maxsize=64)
def _alpha_omegas(N, tau):
    """The second labels alpha_2 and the points omega_alpha = (alpha_1 +
    alpha_2 tau) / N of the alpha grid, as arrays in grid order."""
    alphas = np.array(_alpha_grid(N), dtype=float)
    out = alphas[:, 1], (alphas[:, 0] + alphas[:, 1] * tau) / N
    for a in out:  # shared by every caller
        a.flags.writeable = False
    return out


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

# the smallest Yang |z| and |hbar|: N / z and 1 / hbar overflow to inf
# near 1e-308, and 1e-300 leaves room for any N below 1e8
_YANG_FLOOR = 1e-300


def _check_yang_argument(what, v):
    """The Yang entries divide by z and hbar: both must be finite, and far
    enough from 0 that the quotients stay finite."""
    if (np.abs(v) < _YANG_FLOOR).any():
        raise ZeroArgument(f"Yang R-matrix needs {what} != 0 "
                           f"(|{what}| >= {_YANG_FLOOR:g})")
    if not np.isfinite(v).all():
        raise SeriesNotConverged(f"Yang R-matrix needs a finite {what}")


def _mismatch(z, hbar):
    """The error for arrays of z and hbar that do not broadcast."""
    return DimensionMismatch(
        f"z of shape {np.shape(z)} and hbar of shape {np.shape(hbar)} do not broadcast"
    )


def yang_r(z, hbar, N):
    """Yang R-matrix Id/hbar + (N/z) P on C^N tensor C^N.

    Broadcasts over arrays of z and hbar: the shape is their broadcast
    shape + (N^2, N^2).  Shapes that do not broadcast raise
    DimensionMismatch.
    """
    N = _as_count("N", N, 1)
    zs, hs = _as_array("z", z), _as_array("hbar", hbar)
    try:
        z, hbar = np.broadcast_arrays(zs, hs)
    except ValueError:
        raise _mismatch(z, hbar) from None
    _check_yang_argument("z", z)
    _check_yang_argument("hbar", hbar)
    dim = N * N
    return (
        np.eye(dim, dtype=complex) / hbar[..., None, None]
        + (N / z)[..., None, None] * permutation_operator(N)
    )


def _belavin_weights(spec, z, hbar):
    """Scalar weights of the T tensor T stack at broadcast arrays z and
    hbar, shape (broadcast shape) + (N^2,), from one kronecker_phi call."""
    N = spec.site_dim
    a2, omegas = _alpha_omegas(N, spec.lattice.tau)
    zs = _as_array("z", z)[..., None]
    try:
        phis = kronecker_phi(zs, omegas + _as_array("hbar", hbar)[..., None],
                             spec.lattice)
    except DimensionMismatch:
        raise _mismatch(z, hbar) from None
    return np.exp(2j * np.pi * a2 * zs / N) * phis


def _weighted_tt(w, tt):
    """sum_a w[..., a] tt[a], a matrix per leading index of w."""
    k, dim = tt.shape[:2]
    return (w @ tt.reshape(k, dim * dim)).reshape(w.shape[:-1] + (dim, dim))


def belavin_r(spec, z, hbar=None):
    """Elliptic R-matrix at spectral parameter z, shape (N^2, N^2).

    Broadcasts over arrays of z and hbar like :func:`yang_r`.
    """
    if hbar is None:
        hbar = spec.hbar
    else:
        spec.validate_hbar(hbar)
    return _weighted_tt(_belavin_weights(spec, z, hbar), _tt_stack(spec.site_dim))


def r_matrix(spec, z, hbar=None):
    """Evaluate the R-matrix of the given spec, shape (N^2, N^2).

    hbar overrides spec.hbar when given (validated the same way).  Both
    broadcast: arrays of z and hbar give the broadcast shape + (N^2, N^2),
    every entry a scalar call's matrix, so a check builds all its factors
    in one call.  Shapes that do not broadcast raise DimensionMismatch.
    """
    if spec.kind is RMatrixKind.YANG:
        return yang_r(z, spec.hbar if hbar is None else hbar, spec.site_dim)
    return belavin_r(spec, z, hbar)


# ---------------------------------------------------------------------------
# same-site degeneration
# ---------------------------------------------------------------------------

def same_site_closed_form(spec, z, hbar=None):
    """Scalar value of R with both tensor legs on one site.

    Yang: 1/hbar + N^2/z.  Elliptic: N phi(N hbar, z/N).  hbar overrides
    spec.hbar when given (validated the same way).  Arrays of z and hbar,
    lists included, broadcast, and shapes that do not raise
    DimensionMismatch.
    """
    if hbar is None:
        hbar = spec.hbar
    else:
        spec.validate_hbar(hbar)
    # a number keeps Python's complex arithmetic, which rounds unlike numpy's
    z, hbar = (v if isinstance(v, numbers.Number) else _as_array(name, v)
               for name, v in (("z", z), ("hbar", hbar)))
    N = spec.site_dim
    if spec.kind is RMatrixKind.YANG:
        _check_yang_argument("z", z)
        try:
            return 1.0 / hbar + N * N / z
        except ValueError:
            raise _mismatch(z, hbar) from None
    try:
        return N * kronecker_phi(N * hbar, z / N, spec.lattice)
    except DimensionMismatch:
        raise _mismatch(z, hbar) from None


def r_same_site(spec, z, hbar=None):
    """R-matrix with both legs on a single site, an N x N scalar matrix.

    The sum collapses to (sum of the weights) Id, as T_alpha T_(-alpha) = Id.
    It is compared against the closed form; a Frobenius distance above
    ``_SAME_SITE_TOL`` raises :class:`ExpansionFailed`.  z and hbar are
    scalars; an array of either raises :class:`DimensionMismatch`.
    """
    if np.ndim(z) or np.ndim(hbar):
        raise DimensionMismatch(f"r_same_site takes a scalar z and hbar, got shapes "
                                f"{np.shape(z)} and {np.shape(hbar)}")
    closed = same_site_closed_form(spec, z, hbar)  # checks hbar and z first
    if hbar is None:
        hbar = spec.hbar
    N = spec.site_dim
    if spec.kind is RMatrixKind.YANG:
        mat = np.eye(N, dtype=complex) / hbar + (spec.site_dim / z) * (
            N * np.eye(N, dtype=complex)
        )
    else:
        mat = sum(_belavin_weights(spec, complex(z), hbar).tolist()) * np.eye(N)
    resid = frobenius_distance(mat, closed * np.eye(N))
    if resid > _SAME_SITE_TOL:
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
    not depend on the choice of c or of its point.  The residual is read,
    as for QYBE, on the probe block X of three sites, one plan of
    ``tensor_ops``.
    """

    matrix: np.ndarray
    structural_residual: float


def _deriv_hbar_matrix(spec, z, hbar):
    """dR/dhbar at the broadcast arrays z and hbar (None: spec.hbar), shape
    (broadcast shape) + (N^2, N^2)."""
    N = spec.site_dim
    z, hbar = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(
        spec.hbar if hbar is None else hbar, dtype=complex))
    if spec.kind is RMatrixKind.YANG:
        return -np.eye(N * N, dtype=complex) / (hbar * hbar)[..., None, None]
    a2, omegas = _alpha_omegas(N, spec.lattice.tau)
    # d/dhbar phi(z, w + hbar) is the slot derivative of phi at (w + hbar, z)
    dphis = kronecker_phi_deta(omegas + hbar[..., None], z[..., None], spec.lattice)
    return _weighted_tt(np.exp(2j * np.pi * a2 * z[..., None] / N) * dphis, _tt_stack(N))


def _stacked(call, parts):
    """For each part (spec, z, hbar), a 1-d array z and an array hbar along
    it or None for spec.hbar, the value of call(spec, z, hbar), an array or
    a tuple of arrays along z.  The parts of one family, N, lattice and
    length of z, with or without hbar, take one call, on their z as rows and
    their hbar as a column or as rows; an RmxError that a call raises
    propagates."""
    def build(group):
        out = call(group[0][0], np.stack([z for _, z, _ in group]),
                   np.array([[s.hbar] if h is None else h for s, _, h in group]))
        return list(zip(*out)) if isinstance(out, tuple) else list(out)
    return _grouped(build, parts, lambda p: (p[0].kind, p[0].site_dim, p[0].lattice,
                                             len(p[1]), p[2] is None))


# dR_ab X and R_ab r_ac X + r_cb R_ab X - R_ac R_cb X at the sites
# (a, b, c) = (1, 2, 3); the sign rides on the factor -R_ac
_DERIV_HBAR = _plan_sides(3, [[[("dR", 1, 2)]],
                              [[("R", 1, 2), ("r", 1, 3)], [("r", 3, 2), ("R", 1, 2)],
                               [("-R", 1, 3), ("R", 3, 2)]]])


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
    return _alone(_hbar_derivatives, (spec, z_a, z_b, aux_point))


def _hbar_derivatives(requests):
    """r_deriv_hbar on each request (spec, z_a, z_b, aux_point): its
    HbarDerivative; the first RmxError met is raised.  The derivative
    matrices, the R-matrices and the closed forms of r are one joint call
    each, and the structural identities run as the slabs of one plan."""
    def points(spec, z_a, z_b, aux_point):
        z_a, z_b = _as_complex("z_a", z_a), _as_complex("z_b", z_b)
        z_c = (z_a + z_b) / 2 + 0.1566 + 0.0873j if aux_point is None else aux_point
        return z_a, z_b, _as_complex("aux_point", z_c)

    specs, pts = [spec for spec, *_ in requests], [points(*request) for request in requests]
    derivs = _stacked(_deriv_hbar_matrix, [(spec, np.array([a - b]), None)
                                           for spec, (a, b, _) in zip(specs, pts)])
    ops = _stacked(r_matrix, [(spec, np.array([a - b, a - c, c - b]), None)
                              for spec, (a, b, c) in zip(specs, pts)])
    cls = _stacked(lambda spec, z, _: classical_closed_form(spec, z), [
        (spec, np.array([a - c, c - b]), None) for spec, (a, b, c) in zip(specs, pts)])

    def table(deriv, ops, cl):
        r_ab, r_ac, r_cb = ops
        factors = {("dR", 1, 2): deriv[0], ("R", 1, 2): r_ab, ("r", 1, 3): cl[0][0],
                   ("r", 3, 2): cl[0][1], ("-R", 1, 3): -r_ac, ("R", 3, 2): r_cb}
        return _DERIV_HBAR, [(factors, 0)]

    sides = _probe_jobs([table(*parts) for parts in zip(derivs, ops, cls)])
    return [HbarDerivative(d[0], frobenius_distance(*s[:, 0]))
            for d, s in zip(derivs, sides)]


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
    """Closed forms of (r, m) at spectral parameter z.

    Broadcasts over an array of z: r and m then have shape
    z.shape + (N^2, N^2).  The elliptic family takes E1, wp and the
    Kronecker terms from one theta series on [z, omega_alpha, omega_alpha + z].
    """
    N = spec.site_dim
    dim = N * N
    z = _as_array("z", z)
    if spec.kind is RMatrixKind.YANG:
        _check_yang_argument("z", z)
        r = (N / z)[..., None, None] * permutation_operator(N)
        return r, np.zeros(r.shape, dtype=complex)
    a2, omegas = _alpha_omegas(N, spec.lattice.tau)
    e1, wp, phi, dphi = _classical_parts(z, omegas[1:], spec.lattice)
    coeffs = np.exp(2j * np.pi * a2[1:] * z[..., None] / N)
    eye = np.eye(dim, dtype=complex)
    tt = _tt_stack(N)[1:]
    r = e1[..., None, None] * eye + _weighted_tt(coeffs * phi, tt)
    m = (0.5 * (e1 * e1 - wp))[..., None, None] * eye + _weighted_tt(coeffs * dphi, tt)
    return r, m


def _contour(spec, z, radius, points):
    """The hbar contour nodes around 0, and R at z and every node from one
    r_matrix call (z broadcasts against the nodes).

    A radius that is not a real number raises UsageError.  Raises
    ContourHitsPole unless 0 < radius < inf and, on the elliptic family,
    radius < 0.9 times the distance to the nearest hbar pole of R besides 0.
    """
    if not isinstance(radius, numbers.Real):
        raise UsageError(f"contour_radius must be a real number, got {radius!r}")
    if not 0 < radius < np.inf:
        raise ContourHitsPole(f"contour radius must lie in (0, inf), got {radius}")
    if spec.kind is RMatrixKind.BELAVIN:
        # R has its hbar poles on the lattice (Z + tau Z) / N, so the
        # nearest one besides hbar = 0 lies a shortest period over N away;
        # at N = 1 these are the lattice points themselves
        nearest = spec.lattice.shortest_period / spec.site_dim
        if radius >= 0.9 * nearest:
            raise ContourHitsPole(
                f"contour radius {radius} reaches the hbar pole "
                f"at distance {nearest:.6g}"
            )
    nodes = radius * np.exp(2j * np.pi * np.arange(points) / points)
    return nodes, r_matrix(spec, z, nodes)


def _laurent_coefficients(nodes, vals):
    """Trapezoid sums for the hbar^(-1), hbar^0 and hbar^1 coefficients,
    a dict keyed by the power, from one matmul of the weights nodes^(-j)
    against the node values."""
    w = np.stack([nodes ** -j for j in (-1, 0, 1)])
    sums = w @ vals.reshape(len(nodes), -1) / len(nodes)
    return dict(zip((-1, 0, 1), sums.reshape((3,) + vals.shape[1:])))


def _default_radius(spec, z):
    # Yang is pole-free in hbar away from 0, so a fixed O(1) circle keeps
    # the hbar^(-2) roundoff amplification of the quadrature small
    if spec.kind is RMatrixKind.YANG:
        return 0.5
    # the nearest hbar pole besides 0 is a shortest period over N away; a
    # quarter of that bounds the radius at large N or a dense lattice
    tau = spec.lattice.tau
    return min(0.025 * min(1.0, abs(tau), abs(1.0 + tau)),
               spec.lattice.shortest_period / (4 * spec.site_dim))


def classical_expansion(spec, z, quadrature_points=32, contour_radius=None):
    """Extract r and m from R by quadrature on an hbar circle around 0.

    The Laurent coefficients are trapezoid sums over ``quadrature_points``
    contour nodes; the run is repeated with twice the nodes and the change
    is reported (and must stay below ``_REFINE_TOL``).  The hbar pole
    coefficient is checked against the identity and (r, m) against their
    closed forms.

    Raises
    ------
    ContourHitsPole
        If the contour radius reaches the nearest hbar pole of R.
    QuadratureNotConverged
        If doubling the node count still moves the coefficients.
    """
    z = _as_complex("z", z)
    if contour_radius is None:
        contour_radius = _default_radius(spec, z)
    quadrature_points = _as_index("quadrature_points", quadrature_points)
    if quadrature_points < 8:
        raise QuadratureNotConverged("need at least 8 quadrature points")

    # the coarse nodes are every other fine node: evaluate R once
    nodes, vals = _contour(spec, z, contour_radius, 2 * quadrature_points)
    coarse = _laurent_coefficients(nodes[::2], vals[::2])
    fine = _laurent_coefficients(nodes, vals)
    extraction = max(frobenius_distance(coarse[j], fine[j]) for j in (-1, 0, 1))
    if extraction > _REFINE_TOL:
        raise QuadratureNotConverged(
            f"coefficient change {extraction:.3e} under node doubling "
            f"exceeds {_REFINE_TOL}"
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
