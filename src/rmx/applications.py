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
``tensor_ops._probe_block`` and forms no N**n x N**n matrix: each is one
plan of the contraction code of ``tensor_ops``, a job of its ``_probe_jobs``.
Each check is its batch entry (:func:`_trace_power_batch`,
:func:`_kzb_batch`, :func:`_hbar_order_batch`) run on one request, as in
``identities``; an entry raises the first RmxError it meets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch, QuadratureNotConverged, SeriesNotConverged, UsageError, _alone,
    _as_complex, _as_count, _as_index,
)
from .identities import _pair_differences, _verdict
from .rmatrix import (
    _checked,
    _contour,
    _default_radius,
    _laurent_coefficients,
    _stacked,
    classical_closed_form,
    r_matrix,
)
from .special_functions import kronecker_phi
from .tensor_ops import _plan, _plan_sides, _probe_block, _probe_jobs, _probe_scalar

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
        for name in ("momenta", "positions"):
            object.__setattr__(self, name, tuple(_as_complex(name, v)
                                                 for v in getattr(self, name)))
        object.__setattr__(self, "coupling", _as_complex("coupling", self.coupling))
        if len(self.momenta) != len(self.positions):
            raise DimensionMismatch(
                f"{len(self.momenta)} momenta vs {len(self.positions)} positions"
            )
        if len(self.momenta) < 2:
            raise UsageError("need at least two particles")
        for name, values in (("momenta", self.momenta), ("coupling", [self.coupling])):
            if not np.isfinite(values).all():
                raise SeriesNotConverged(f"CalogeroConfig needs finite {name}")

    @property
    def n_particles(self):
        return len(self.momenta)


def lax_krichever(config):
    """Scalar n x n Lax matrix with the same-site R-matrix value off-diagonal,
    its N phi(N hbar, z_a - z_b) from one kronecker_phi call."""
    spec, pairs = config.rspec, list(itertools.permutations(range(config.n_particles), 2))
    phis = kronecker_phi(spec.site_dim * spec.hbar, np.array(
        [config.positions[a] - config.positions[b] for a, b in pairs]), spec.lattice)
    lax = np.diag(np.array(config.momenta, dtype=complex))
    for (a, b), value in zip(pairs, phis.tolist()):
        lax[a, b] = config.coupling * spec.site_dim * value
    return lax


@lru_cache(maxsize=32)
def _lax_plan(n, power):
    """The plan of (L^power X)_0 for the block Lax operator L on n particles
    and the input X in slot 0: layer l's state b is (L^l X)_b, the sum of
    L_bc times state c of layer l - 1, with L_bc keyed (b, c) and applied at
    the legs (b, c), or at (b, b + 1 mod n) for b = c.  Only the states on a
    path from the input to state 0 of the last layer are kept."""
    edges = []
    for layer in range(1, power + 1):
        sources = [0] if layer == 1 else range(n)
        for b in [0] if layer == power else range(n):
            edges += [((layer - 1, c), (layer, b), (b, c) if b != c else (b, (b + 1) % n),
                       (b, c)) for c in sources]
    return _plan(n, edges, [(power, 0)])


def check_trace_power_guess(config, power, tolerance=None):
    """Diagonal blocks of the k-th block Lax power against the scalar Lax power.

    For each particle a the block (L^k)_aa must be scalar, and its
    coefficient must equal the (a, a) entry of l^k for the scalar Lax
    matrix l.  L is never formed: L_ab = p_a Id + nu R_ab (a != b), and
    (L^k)_aa X is (L^k X_a)_a for the block vector X_a that holds the probe
    block X in slot a.  The particles run as the slabs of one plan
    (:func:`_lax_plan`), slab a with particle a on leg 0, and each
    (L^k)_aa X is read like the cyclic sum of ``check_nth_order``.
    Residuals over all a are combined.  The details record the per-block
    coefficients, the worst non-scalar residual, the residual of the summed
    traces, and whether the power is below the particle count.

    Raises
    ------
    UsageError
        If ``power`` is not an integer of at least 1.
    """
    return _alone(_trace_power_batch, (config, power, tolerance))


def _trace_power_batch(requests):
    """check_trace_power_guess on each request (config, power, tolerance):
    its report; the first RmxError met is raised.  The factors of all
    requests come from one r_matrix call, and the scalar Lax matrices from
    lax_krichever.  A request's job has the blocks L_bc as its table
    and one slab per particle a; each (L^k)_aa X is read by _probe_scalar."""
    configs = [config for config, _, _ in requests]
    powers = [_as_count("power", power, 1) for _, power, _ in requests]
    screened = [_pair_differences(c.rspec, c.n_particles, c.positions) for c in configs]
    factors = _stacked(r_matrix, [(c.rspec, diffs, None)
                                  for c, (_, diffs) in zip(configs, screened)])
    scalars = [lax_krichever(config) for config in configs]

    def job(config, power, pairs, ops):
        # the blocks L_bc, keyed (b, c), and one slab per particle a
        n = config.n_particles
        table = dict(zip(pairs, config.coupling * ops))
        eye = np.eye(config.rspec.site_dim ** 2)
        table.update({(a, a): p * eye for a, p in enumerate(config.momenta)})
        return _lax_plan(n, power), [(table, a) for a in range(n)]

    def report(config, power, tolerance, outputs, scalar):
        spec, n = config.rspec, config.n_particles
        x = _probe_block(spec.site_dim ** n)
        coeffs, nonscalars = _probe_scalar(x, outputs[0])
        coeffs, nonscalar = coeffs.tolist(), float(nonscalars.max())
        scalar = np.linalg.matrix_power(scalar, power)
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

    outputs = _probe_jobs([job(c, k, pairs, ops) for c, k, (pairs, _), ops
                           in zip(configs, powers, screened, factors)])
    return [report(c, k, tolerance, out, scalar) for c, k, (_, _, tolerance), out, scalar
            in zip(configs, powers, requests, outputs, scalars)]


# [r_p, m_q] X = r_p m_q X - m_q r_p X summed over the pairs (p, q) of
# [r_12, m_13 + m_23] + [r_13, m_12 + m_23]; the sign rides on the factor -m_q
_KZB = _plan_sides(3, [[
    term for p in ((1, 2), (1, 3)) for q in ((1, 2), (1, 3), (2, 3)) if q != p
    for term in ([("r", *p), ("m", *q)], [("-m", *q), ("r", *p)])]])


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

    to the probe block X of three sites, one plan of ``tensor_ops``, and
    measures it relative to the product of the r and m norms.  By default the
    coefficients come from contour quadrature with ``quadrature_points``
    nodes, so the residual decreases as the node count grows;
    ``use_closed_form=True`` bypasses quadrature entirely.
    """
    return _alone(_kzb_batch, (_checked(spec), points, quadrature_points, contour_radius,
                               tolerance, use_closed_form))


def _kzb_batch(requests):
    """check_kzb_flatness on each request (spec, points, quadrature_points,
    contour_radius, tolerance, use_closed_form); the first RmxError met is
    raised.  R at the nodes of all is one r_matrix call, their jobs one run."""
    pairs = ((1, 2), (1, 3), (2, 3))

    def screen(spec, points, quadrature_points, contour_radius, _, use_closed_form):
        # (spec, z at each pair, None), or z as a column and the nodes as a row
        if len(points) != 3:
            raise DimensionMismatch(f"flatness takes three points, got {len(points)}")
        if not use_closed_form:
            quadrature_points = _as_index("quadrature_points", quadrature_points)
            if quadrature_points < 2:
                raise QuadratureNotConverged("need at least 2 quadrature points")
        z = [_as_complex("a point", p) for p in points]
        zs = np.array([z[i - 1] - z[j - 1] for i, j in pairs])
        if use_closed_form:
            return spec, zs, None
        if contour_radius is None:
            contour_radius = _default_radius(spec, zs)
        return spec, zs[:, None], _contour(spec, contour_radius, quadrature_points)[None]

    parts = [screen(*request) for request in requests]
    quad = iter(_stacked(r_matrix, [part for part in parts if part[2] is not None]))
    rms = [dict(zip(pairs, zip(*classical_closed_form(spec, z)) if nodes is None else [
        (c[0], c[1]) for c in (_laurent_coefficients(nodes[0], v) for v in next(quad))]))
        for spec, z, nodes in parts]
    outputs = _probe_jobs([(_KZB, [({(tag, *p): v for p, (r, m) in rm.items()
                                     for tag, v in (("r", r), ("m", m), ("-m", -m))}, 0)])
                           for rm in rms])
    reports = []
    for (spec, _, k, _, tolerance, closed_form), rm, out in zip(requests, rms, outputs):
        r_norm = max(np.linalg.norm(r) for r, _ in rm.values())
        m_norm = max(np.linalg.norm(m) for _, m in rm.values())
        residual = float(np.linalg.norm(out[0, 0])) / max(1.0, r_norm * m_norm)
        reports.append(_verdict(
            "kzb-flatness", residual, tolerance, spec.kind, spec.site_dim, 3,
            r_norm=float(r_norm), m_norm=float(m_norm),
            quadrature_points=None if closed_form else _as_index("quadrature_points", k)))
    return reports


@lru_cache(maxsize=32)
def _hbar_order_plan(n):
    """The plan of both sides of the r/m relation on n sites, the lhs as
    {x, y} + {y, w} + {w, x} = x (y + w) + y (x + w) + w (x + y): the terms
    r_p r_q of the pairs p != q of each triple share their state r_q X."""
    sites = range(1, n + 1)
    triples = [((c, a), (a, b), (b, c)) for c, a, b in itertools.combinations(sites, 3)]
    return _plan_sides(n, [
        [[("r", *p), ("r", *q)] for t in triples for p in t for q in t if p != q],
        [[("m", *p)] for p in itertools.permutations(sites, 2)]])


def check_hbar_order_relation(spec, n, points, tolerance=None):
    """Anticommutator relation between r and m on n >= 3 sites.

    Checks

        sum_(c<a<b) ({r_ca, r_ab} + {r_ab, r_bc} + {r_bc, r_ca})
            = -(n - 2) sum_(b != c) m_bc

    with every pair coefficient in closed form, applied to the probe block
    X by one plan of ``tensor_ops`` (:func:`_hbar_order_plan`).  The details carry
    ||lhs X|| and ||rhs X||, on the scale of the Frobenius norms because
    ||X|| = sqrt(D).  The arguments pass the screen of the n-site checks
    before any coefficient is built.
    """
    return _alone(_hbar_order_batch, (_checked(spec), n, points, tolerance))


def _hbar_order_batch(requests):
    """check_hbar_order_relation on each request (spec, n, points,
    tolerance): its report; the first RmxError met is raised.  The closed
    forms of all requests come from one classical_closed_form call, and the
    requests of one N and n run as the slabs of one plan."""
    def screen(spec, n, points, tolerance):
        n = _as_index("n", n)
        if n < 3:
            raise DimensionMismatch("the relation needs n >= 3 sites")
        return (n, *_pair_differences(spec, n, points))

    screened = [screen(*request) for request in requests]
    rms = _stacked(lambda spec, z, _: classical_closed_form(spec, z),
                   [(request[0], diffs, None) for request, (_, _, diffs)
                    in zip(requests, screened)])

    def job(n, pairs, rm):
        table = {}
        for (i, j), r, m in zip(pairs, *rm):
            table["r", i + 1, j + 1], table["m", i + 1, j + 1] = r, -(n - 2) * m
        return _hbar_order_plan(n), [(table, 0)]

    def report(spec, tolerance, n, rm, sides):
        N = spec.site_dim
        lhs, rhs = sides[:, 0]
        # the anticommutators cancel pairwise, so condition on their size,
        # not on the (possibly zero) right-hand side; acting on n sites
        # scales the Frobenius norm of a two-site operator by sqrt(N**(n-2)),
        # and ||X|| = sqrt(D) keeps the probed norms on that scale
        r_scale = max(np.linalg.norm(v) for v in rm[0]) * np.sqrt(N ** (n - 2))
        scale = max(1.0, float(np.linalg.norm(rhs)), r_scale * r_scale)
        residual = float(np.linalg.norm(lhs - rhs)) / scale
        return _verdict(f"hbar-order-{n}", residual, tolerance, spec.kind, N, 3,
                        lhs_norm=float(np.linalg.norm(lhs)),
                        rhs_norm=float(np.linalg.norm(rhs)))

    sides = _probe_jobs([job(n, pairs, rm) for (n, pairs, _), rm in zip(screened, rms)])
    return [report(request[0], request[3], n, rm, s)
            for request, (n, _, _), rm, s in zip(requests, screened, rms, sides)]
