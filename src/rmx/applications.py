r"""Consequences of the identity hierarchy: spin-chain Lax traces and flatness.

Two applications are implemented.

Trace-power correspondence.  The block Lax operator of an N-spin
elliptic Calogero type system,

.. math::

    L_{ab} = \delta_{ab}\, p_a\, \mathrm{Id}
        + \nu (1 - \delta_{ab})\, R_{ab}(z_a - z_b),

is an n x n matrix of operators on the n-site quantum space, with the
R factor embedded at sites (a, b).  The cyclic identities make the
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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, QuadratureNotConverged, UsageError
from .identities import _verdict
from .rmatrix import (
    _default_radius,
    _contour,
    _laurent_coefficients,
    classical_closed_form,
    r_matrix,
)
from .special_functions import kronecker_phi
from .tensor_ops import (
    DEFAULT_SIZE_CAP,
    _check_cap,
    apply_two_site,
    is_scalar_operator,
)

__all__ = [
    "CalogeroConfig",
    "lax_rmatrix",
    "lax_krichever",
    "block_matrix_power",
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


def _pairs(n):
    return [(a, b) for a in range(n) for b in range(n) if a != b]


def lax_rmatrix(config, size_cap=DEFAULT_SIZE_CAP):
    """Block Lax operator, shape (n, n, N**n, N**n); checks the size cap first."""
    spec = config.rspec
    n = config.n_particles
    zs = config.positions
    dim = _check_cap(spec.site_dim, n, size_cap)
    blocks = np.zeros((n, n, dim, dim), dtype=complex)
    eye = np.eye(dim, dtype=complex)
    for a in range(n):
        blocks[a, a] = config.momenta[a] * eye
    pairs = _pairs(n)
    factors = r_matrix(spec, np.array([zs[a] - zs[b] for a, b in pairs]))
    for (a, b), rm in zip(pairs, factors):
        blocks[a, b] = config.coupling * apply_two_site(
            rm, a + 1, b + 1, n, eye, size_cap
        )
    return blocks


def lax_krichever(config):
    """Scalar n x n Lax matrix with the same-site R-matrix value off-diagonal."""
    spec = config.rspec
    n = config.n_particles
    N = spec.site_dim
    zs = config.positions
    out = np.diag(np.array(config.momenta, dtype=complex))
    pairs = _pairs(n)
    phis = kronecker_phi(
        N * spec.hbar, np.array([zs[a] - zs[b] for a, b in pairs]), spec.lattice
    )
    for (a, b), phi in zip(pairs, phis.tolist()):
        out[a, b] = config.coupling * N * phi
    return out


def block_matrix_power(blocks, power):
    """Power of an (n, n, D, D) block matrix under block matrix multiplication."""
    if power < 1:
        raise UsageError(f"power must be >= 1, got {power}")
    out = blocks
    for _ in range(power - 1):
        out = np.einsum("abij,bcjk->acik", out, blocks)
    return out


def check_trace_power_guess(config, power, tolerance=None, size_cap=DEFAULT_SIZE_CAP):
    """Diagonal blocks of the k-th block Lax power against the scalar Lax power.

    For each particle a the block (L^k)_aa must be scalar, and its
    coefficient must equal the (a, a) entry of l^k for the scalar Lax
    matrix l.  Residuals over all a are combined.  The details record
    the per-block coefficients, the worst non-scalar residual, the
    residual of the summed traces, and whether the case extends past the
    k = n trace the guess was calibrated on.
    """
    spec = config.rspec
    n = config.n_particles
    blocks = block_matrix_power(lax_rmatrix(config, size_cap), power)
    scalar = np.linalg.matrix_power(lax_krichever(config), power)

    coeffs = []
    nonscalar = 0.0
    for a in range(n):
        _, c, resid = is_scalar_operator(blocks[a, a], tol=np.inf)
        coeffs.append(c)
        nonscalar = max(nonscalar, resid)
    diag = np.array([scalar[a, a] for a in range(n)])
    scale = max(1.0, float(np.max(np.abs(diag))))
    coeff_resid = float(np.max(np.abs(np.array(coeffs) - diag))) / scale
    trace_resid = abs(sum(coeffs) - np.trace(scalar)) / max(
        1.0, abs(np.trace(scalar))
    )
    residual = max(coeff_resid, nonscalar)
    return _verdict(f"trace-power k={power}", residual, tolerance, spec.kind,
                    spec.site_dim, max(power, 2), coefficients=coeffs,
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

    Builds r and m for the three pairwise differences, applies them on
    three sites, and measures

        [r_12, m_13 + m_23] + [r_13, m_12 + m_23]

    relative to the product of the r and m norms.  By default the
    coefficients come from contour quadrature with ``quadrature_points``
    nodes, so the residual decreases as the node count grows;
    ``use_closed_form=True`` bypasses quadrature entirely.
    """
    if len(points) != 3:
        raise DimensionMismatch(f"flatness takes three points, got {len(points)}")
    if not use_closed_form and quadrature_points < 2:
        raise QuadratureNotConverged("need at least 2 quadrature points")
    N = spec.site_dim
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

    eye = np.eye(N ** 3, dtype=complex)
    m = {p: apply_two_site(rm[p][1], *p, 3, eye) for p in rm}

    def comm(p, y):
        # [r_p, y] = r_p y - y r_p, with y r_p = (r_p^T y^T)^T
        r = rm[p][0]
        return apply_two_site(r, *p, 3, y) - apply_two_site(r.T, *p, 3, y.T).T

    lhs = comm((1, 2), m[1, 3] + m[2, 3]) + comm((1, 3), m[1, 2] + m[2, 3])
    r_norm = max(np.linalg.norm(rm[p][0]) for p in rm)
    m_norm = max(np.linalg.norm(rm[p][1]) for p in rm)
    scale = max(1.0, r_norm * m_norm)
    residual = float(np.linalg.norm(lhs)) / scale
    return _verdict("kzb-flatness", residual, tolerance, spec.kind, N, 3,
                    r_norm=float(r_norm), m_norm=float(m_norm),
                    quadrature_points=None if use_closed_form else quadrature_points)


def check_hbar_order_relation(
    spec, n, points, tolerance=None, size_cap=DEFAULT_SIZE_CAP
):
    """Anticommutator relation between r and m on n >= 3 sites.

    Checks

        sum_(c<a<b) ({r_ca, r_ab} + {r_ab, r_bc} + {r_bc, r_ca})
            = -(n - 2) sum_(b != c) m_bc

    with every pair coefficient in closed form and applied at its sites.
    The size cap is checked before any coefficient is built.
    """
    if n < 3:
        raise DimensionMismatch("the relation needs n >= 3 sites")
    if len(points) != n:
        raise DimensionMismatch(f"expected {n} points, got {len(points)}")
    N = spec.site_dim
    dim = _check_cap(N, n, size_cap)
    pts = [complex(p) for p in points]

    eye = np.eye(dim, dtype=complex)
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    r_all, m_all = classical_closed_form(
        spec, np.array([pts[i - 1] - pts[j - 1] for i, j in pairs])
    )
    r, r_emb, m_sum = {}, {}, np.zeros((dim, dim), dtype=complex)
    for (i, j), r_ij, m_ij in zip(pairs, r_all, m_all):
        r[i, j] = r_ij
        r_emb[i, j] = apply_two_site(r_ij, i, j, n, eye, size_cap)
        m_sum += apply_two_site(m_ij, i, j, n, eye, size_cap)
    rhs = -(n - 2) * m_sum

    # {x, y} + {y, w} + {w, x} = x (y + w) + y (x + w) + w (x + y)
    lhs = np.zeros((dim, dim), dtype=complex)
    for c, a, b in itertools.combinations(range(1, n + 1), 3):
        triple = ((c, a), (a, b), (b, c))
        for p in triple:
            rest = sum(r_emb[q] for q in triple if q != p)
            lhs += apply_two_site(r[p], *p, n, rest, size_cap)
    # the anticommutators cancel pairwise, so condition on their size,
    # not on the (possibly zero) right-hand side; embedding at n sites
    # scales the Frobenius norm of a two-site operator by sqrt(N**(n-2))
    r_scale = max(np.linalg.norm(v) for v in r.values()) * np.sqrt(N ** (n - 2))
    scale = max(1.0, float(np.linalg.norm(rhs)), r_scale * r_scale)
    residual = float(np.linalg.norm(lhs - rhs)) / scale
    return _verdict(f"hbar-order-{n}", residual, tolerance, spec.kind, N, 3,
                    lhs_norm=float(np.linalg.norm(lhs)),
                    rhs_norm=float(np.linalg.norm(rhs)))
