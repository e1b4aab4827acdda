r"""Consequences of the identity hierarchy: spin-chain Lax traces and flatness.

Two applications are implemented.

Trace-power correspondence.  The block Lax operator of an N-spin
elliptic Calogero type system,

.. math::

    L_{ab} = \delta_{ab}\, p_a\, \mathrm{Id}
        + \nu (1 - \delta_{ab})\, R_{ab}(z_a - z_b),

is an n x n matrix of operators on the n-site quantum space, with the
R factor acting at sites (a, b).  The cyclic identities make the
diagonal blocks of its matrix powers scalar, with scalars reproduced by
the ordinary n x n spectral-parameter Lax matrix

.. math::

    l_{ab} = \delta_{ab}\, p_a + \nu (1 - \delta_{ab})\,
        N \phi(N\hbar, z_a - z_b).

Flatness checks.  The classical coefficients r and m of the expansion
R = Id/hbar + r + hbar m + ... satisfy the commutator identity

.. math::

    [r_{ab}, m_{ac} + m_{bc}] + [r_{ac}, m_{ab} + m_{bc}] = 0

(the flatness condition of a KZB type connection) and, on n sites, the
anticommutator relation

.. math::

    \sum_{c < a < b} \bigl(\{r_{ca}, r_{ab}\} + \{r_{ab}, r_{bc}\}
        + \{r_{bc}, r_{ca}\}\bigr)
    = -(n - 2) \sum_{b \ne c} m_{bc}.

Every check here applies its operators to the probe block X of
``tensor_ops._probe_block`` and forms no N**n x N**n matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, QuadratureNotConverged, UsageError, _as_index
from .identities import _layouts, _pair_differences, _pair_factors, _verdict
from .rmatrix import (
    _default_radius,
    _contour,
    _laurent_coefficients,
    classical_closed_form,
)
from .special_functions import kronecker_phi
from .tensor_ops import _apply_layout, _probe_block, _probe_scalar, _product

__all__ = [
    "CalogeroConfig",
    "lax_krichever",
    "check_trace_power_guess",
    "check_kzb_flatness",
    "check_hbar_order_relation",
]


@dataclass(frozen=True)
class CalogeroConfig:
    """Particle data for the block Lax construction.

    Parameters
    ----------
    rspec : RMatrixSpec
    momenta : tuple of complex
    positions : tuple of complex
        Same length as momenta; pairwise differences must avoid the
        pole set of the R-matrix.
    coupling : complex
        The constant multiplying every off-diagonal block.
    """

    rspec: object
    momenta: tuple
    positions: tuple
    coupling: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "momenta", tuple(complex(p) for p in self.momenta))
        object.__setattr__(
            self, "positions", tuple(complex(z) for z in self.positions)
        )
        object.__setattr__(self, "coupling", complex(self.coupling))
        if len(self.momenta) != len(self.positions):
            raise DimensionMismatch(
                f"{len(self.momenta)} momenta vs {len(self.positions)} positions"
            )
        if len(self.momenta) < 2:
            raise UsageError("need at least two particles")

    @property
    def n_particles(self):
        return len(self.momenta)


def lax_krichever(config):
    """Scalar n x n Lax matrix with the same-site R-matrix value off-diagonal."""
    spec = config.rspec
    n = config.n_particles
    N = spec.site_dim
    zs = config.positions
    out = np.diag(np.array(config.momenta, dtype=complex))
    pairs = list(itertools.permutations(range(n), 2))
    phis = kronecker_phi(
        N * spec.hbar, np.array([zs[a] - zs[b] for a, b in pairs]), spec.lattice
    )
    for (a, b), phi in zip(pairs, phis.tolist()):
        out[a, b] = config.coupling * N * phi
    return out


def check_trace_power_guess(config, power, tolerance=None):
    """Diagonal blocks of the k-th block Lax power against the scalar Lax power.

    For each particle a the block (L^k)_aa must be scalar, and its
    coefficient must equal the (a, a) entry of l^k for the scalar Lax
    matrix l.  L is never formed.  A block vector holds the probe block X
    in slot a, one column group per a, and L is applied to it ``power``
    times as (L Y)_a = p_a Y_a + nu sum_b R_ab Y_b, each R_ab laid out once
    and run by the two-site kernel.  Column group a of slot a then holds
    (L^k)_aa X, read like the cyclic sum of ``check_nth_order``.  Residuals
    over all a are combined.  The details record the per-block
    coefficients, the worst non-scalar residual, the residual of the summed
    traces, and whether the power is below the particle count.

    Raises
    ------
    UsageError
        If ``power`` is not an integer of at least 1.
    """
    power = _as_index("power", power)
    if power < 1:
        raise UsageError(f"power must be >= 1, got {power}")
    spec = config.rspec
    n = config.n_particles
    step = _layouts(_pair_factors(spec, n, config.positions), n)
    x = _probe_block(spec.site_dim ** n)
    k = x.shape[1]
    y = np.zeros((n, len(x), n * k), dtype=complex)
    for a in range(n):
        y[a, :, a * k:(a + 1) * k] = x
    for _ in range(power):
        y = np.stack([
            config.momenta[a] * y[a] + config.coupling * sum(
                _apply_layout(step[a, b], y[b]) for b in range(n) if b != a)
            for a in range(n)])
    coeffs, nonscalars = zip(*(_probe_scalar(x, y[a, :, a * k:(a + 1) * k])
                               for a in range(n)))
    nonscalar = max(nonscalars)
    scalar = np.linalg.matrix_power(lax_krichever(config), power)

    diag = np.array([scalar[a, a] for a in range(n)])
    scale = max(1.0, float(np.max(np.abs(diag))))
    coeff_resid = float(np.max(np.abs(np.array(coeffs) - diag))) / scale
    trace_resid = abs(sum(coeffs) - np.trace(scalar)) / max(
        1.0, abs(np.trace(scalar))
    )
    residual = max(coeff_resid, nonscalar)
    return _verdict(f"trace-power k={power}", residual, tolerance, spec.kind,
                    spec.site_dim, max(power, 2), coefficients=list(coeffs),
                    nonscalar_residual=nonscalar, trace_residual=trace_resid,
                    extended_guess=power < n)


def check_kzb_flatness(
    spec,
    points,
    quadrature_points=32,
    contour_radius=None,
    tolerance=None,
    use_closed_form=False,
):
    """Flatness of the classical connection on a triple of points.

    Builds r and m for the three pairwise differences, applies

        [r_12, m_13 + m_23] + [r_13, m_12 + m_23]

    to the probe block X of three sites (``tensor_ops._product``), and
    measures it relative to the product of the r and m norms.  By default the
    coefficients come from contour quadrature with ``quadrature_points``
    nodes, so the residual decreases as the node count grows;
    ``use_closed_form=True`` bypasses quadrature entirely.
    """
    if len(points) != 3:
        raise DimensionMismatch(f"flatness takes three points, got {len(points)}")
    if not use_closed_form:
        quadrature_points = _as_index("quadrature_points", quadrature_points)
        if quadrature_points < 2:
            raise QuadratureNotConverged("need at least 2 quadrature points")
    z = [complex(p) for p in points]
    pairs = ((1, 2), (1, 3), (2, 3))
    zs = np.array([z[i - 1] - z[j - 1] for i, j in pairs])
    if use_closed_form:
        rm = dict(zip(pairs, zip(*classical_closed_form(spec, zs))))
    else:
        if contour_radius is None:
            contour_radius = _default_radius(spec, zs)
        # R at every pair and contour node from one r_matrix call
        nodes, vals = _contour(spec, zs[:, None], contour_radius, quadrature_points)
        coeffs = [_laurent_coefficients(nodes, v) for v in vals]
        rm = {p: (c[0], c[1]) for p, c in zip(pairs, coeffs)}

    def comm(p, q):  # [r_p, m_q] X = r_p (m_q X) - m_q (r_p X)
        r, m = (rm[p][0], *p), (rm[q][1], *q)
        return _product(3, r, m) - _product(3, m, r)

    lhs = (comm((1, 2), (1, 3)) + comm((1, 2), (2, 3))
           + comm((1, 3), (1, 2)) + comm((1, 3), (2, 3)))
    r_norm = max(np.linalg.norm(rm[p][0]) for p in rm)
    m_norm = max(np.linalg.norm(rm[p][1]) for p in rm)
    scale = max(1.0, r_norm * m_norm)
    residual = float(np.linalg.norm(lhs)) / scale
    return _verdict("kzb-flatness", residual, tolerance, spec.kind, spec.site_dim, 3,
                    r_norm=float(r_norm), m_norm=float(m_norm),
                    quadrature_points=None if use_closed_form else quadrature_points)


def check_hbar_order_relation(spec, n, points, tolerance=None):
    """Anticommutator relation between r and m on n >= 3 sites.

    Checks

        sum_(c<a<b) ({r_ca, r_ab} + {r_ab, r_bc} + {r_bc, r_ca})
            = -(n - 2) sum_(b != c) m_bc

    with every pair coefficient in closed form, applied to the probe block
    X by the two-site kernel: r_q X once per pair q, then r_p on the sum of
    the r_q X of the other two pairs of a triple.  The details carry
    ||lhs X|| and ||rhs X||, on the scale of the Frobenius norms because
    ||X|| = sqrt(D).  The arguments pass the screen of the n-site checks
    before any coefficient is built.
    """
    n = _as_index("n", n)
    if n < 3:
        raise DimensionMismatch("the relation needs n >= 3 sites")
    pairs, z = _pair_differences(spec, n, points)
    r_all, m_all = classical_closed_form(spec, z)
    r = _layouts(dict(zip(pairs, r_all)), n)
    m = _layouts(dict(zip(pairs, m_all)), n)
    N = spec.site_dim
    x = _probe_block(N ** n)
    rx = {p: _apply_layout(r[p], x) for p in pairs}
    rhs = -(n - 2) * sum(_apply_layout(m[p], x) for p in pairs)

    # {x, y} + {y, w} + {w, x} = x (y + w) + y (x + w) + w (x + y)
    lhs = np.zeros(x.shape, dtype=complex)
    for c, a, b in itertools.combinations(range(n), 3):
        triple = ((c, a), (a, b), (b, c))
        for p in triple:
            lhs += _apply_layout(r[p], sum(rx[q] for q in triple if q != p))
    # the anticommutators cancel pairwise, so condition on their size,
    # not on the (possibly zero) right-hand side; acting on n sites
    # scales the Frobenius norm of a two-site operator by sqrt(N**(n-2)),
    # and ||X|| = sqrt(D) keeps the probed norms on that scale
    r_scale = max(np.linalg.norm(v) for v in r_all) * np.sqrt(N ** (n - 2))
    scale = max(1.0, float(np.linalg.norm(rhs)), r_scale * r_scale)
    residual = float(np.linalg.norm(lhs - rhs)) / scale
    return _verdict(f"hbar-order-{n}", residual, tolerance, spec.kind, N, 3,
                    lhs_norm=float(np.linalg.norm(lhs)),
                    rhs_norm=float(np.linalg.norm(rhs)))
