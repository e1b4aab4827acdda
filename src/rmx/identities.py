r"""The identity hierarchy satisfied by the quantum R-matrices.

The central objects are the cyclic matrix products on n sites

.. math::

    \sum_{(i_1, \dots, i_{n-1})} R_{a i_1}(z_a - z_{i_1})
        R_{i_1 i_2}(z_{i_1} - z_{i_2}) \cdots R_{i_{n-1} a}(z_{i_{n-1}} - z_a),

summed over all orderings of the remaining sites.  For n >= 3 the sum is a
scalar matrix, independent of the points and of the outer site a, with
coefficient :math:`(-N)^n \wp^{(n-2)}(N\hbar)`.  The n = 2 member is the
unitarity relation

.. math::

    R_{12}(z) R_{21}(-z) = N^2 \bigl(\wp(N\hbar) - \wp(z)\bigr)\,\mathrm{Id},

and n = 1 degenerates to the same-site scalar :math:`N\phi(N\hbar, z/N)`.
Alongside these live the quantum and associative Yang-Baxter equations and
the skew-symmetry R(z, hbar) = -P R(-z, -hbar) P.

Every member n >= 2 applies its sum to a fixed probe block by a subset DP
over the sites, a plan of ``tensor_ops`` (:func:`_dp_plan`, cached per n)
with one slab (factors, a) per sum from outer site a.
:func:`check_cyclic_batch` runs many checks, such as every same-site,
unitarity, order-n and outer-n case of a ``rmx verify`` part, with one
r_matrix call for the factors of all and one ``_probe_jobs`` call, one DP
per N and n.  Its core :func:`_cyclic_batch` raises the first RmxError it
meets, and ``errors._joint`` reruns a batch that raised one request at a
time.  Unitarity, the order-n checks and outer-index independence are
that core run on one request.

QYBE, AYBE and skew symmetry are plans of the same code, with private batch
entries of the same kind (:func:`_qybe_batch`, :func:`_aybe_batch`,
:func:`_skew_symmetry_batch`): one r_matrix call builds the factors of all
their requests, each request keeping its own hbar, one plan run takes the
probes of all, and the first RmxError met is raised.  Each public check is
its entry run on one request.

Each check returns an :class:`IdentityReport` carrying the measured
residual, the tolerance it was judged against, and diagnostic details.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateArguments,
    DimensionMismatch,
    IndexOutOfRange,
    PoleProximity,
    UsageError,
    ZeroArgument,
    _alone,
    _as_complex,
    _as_count,
    _as_index,
    _joint,
)
from .special_functions import scalar_cyclic_sum, weierstrass_p
from .rmatrix import _stacked, r_matrix, r_same_site, same_site_closed_form
from .tensor_ops import (
    _PROBES, _check_cap, _plan, _plan_sides, _probe_block, _probe_jobs, _probe_scalar,
    frobenius_distance,
)

__all__ = [
    "IdentityReport",
    "default_tolerance",
    "cyclic_sum_cost",
    "check_nth_order",
    "check_cyclic_batch",
    "check_unitarity",
    "check_qybe",
    "check_aybe",
    "check_skew_symmetry",
    "check_outer_index_independence",
]


@dataclass
class IdentityReport:
    """Outcome of one identity check."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


def default_tolerance(kind, N=1, n=3):
    """Residual tolerance for an identity check.

    Rational and trigonometric data stay near machine precision; the
    elliptic family loses digits through the theta quotients, more so at
    larger N and deeper n (higher wp derivatives on the right-hand side).
    The kind is one of the labels yang, rational, trigonometric, elliptic
    and belavin, or its enum member; any other is a :class:`UsageError`.
    """
    label = getattr(kind, "value", kind)
    if not isinstance(label, str) or label not in (
            "yang", "rational", "trigonometric", "elliptic", "belavin"):
        raise UsageError(f"unknown kind {kind!r}, pick from yang, rational, "
                         "trigonometric, elliptic or belavin")
    if label in ("yang", "rational"):
        return 1e-13
    if label == "trigonometric":
        return 1e-12
    if N >= 3 and n >= 5:
        return 5e-9
    return 1e-9


def _verdict(name, residual, tolerance, kind, N, n, **details):
    """The report of every check: a ``None`` tolerance becomes
    ``default_tolerance(kind, N, n)``, and the check passes when
    ``residual < tolerance``."""
    if tolerance is None:
        tolerance = default_tolerance(kind, N, n)
    return IdentityReport(name, residual < tolerance, residual, tolerance, details)


def _pair_differences(spec, n, points, outer=1):
    """The ordered pairs (i, j) of 0-based sites i != j and the array of
    their z_i - z_j, after the screen that every n-site check runs before
    building a coefficient: the outer site, n >= 2, one point per site and
    the size cap."""
    if not 1 <= outer <= n:
        raise IndexOutOfRange(f"outer index {outer} not in 1..{n}")
    if n < 2:
        raise DimensionMismatch(f"the cyclic product sum needs n >= 2, got {n}")
    if len(points) != n:
        raise DimensionMismatch(f"expected {n} points, got {len(points)}")
    _check_cap(spec.site_dim, n)
    pts = [_as_complex("a point", p) for p in points]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return pairs, np.array([pts[i] - pts[j] for i, j in pairs])


def cyclic_sum_cost(site_dim, n):
    """Complex multiply-adds of one probed cyclic product sum on n sites.

    Each two-site step of the subset DP applies an N^2 x N^2 factor to the
    D x k state, D = N^n and k = min(4, D) probe columns: D N^2 k
    multiply-adds.  There are n - 1 steps into the first layer, n - 1
    closing the chains, and one from each of the m C(n-1, m) states with m
    sites to each of its n - 1 - m successors, (n-1)(n-2) 2^(n-3) in all.
    """
    site_dim, n = _as_count("site_dim", site_dim, 1), _as_index("n", n)
    if n < 2:
        raise DimensionMismatch(f"the cyclic product sum needs n >= 2, got {n}")
    steps = 2 * (n - 1) + (n - 1) * (n - 2) * 2 ** n // 8
    dim = site_dim ** n
    return steps * dim * site_dim ** 2 * min(_PROBES, dim)


@lru_cache(maxsize=32)
def _dp_plan(n):
    """The plan of the cyclic product sums on n legs.  A slab (factors, a)
    of a job of this plan, the factors R_ij(z_i - z_j) keyed by the pairs of
    _pair_differences, gives
    S x, where S is the cyclic product sum from the 0-based outer site a
    back to itself.  Each state (T, k) of the subset DP holds the sum of
    R_{k i_m} ... R_{i_1 0} x over the orderings of the leg set T that end at
    k: G[T + {k}, k] = sum_j R_kj G[T, j], and S x = sum_j R_0j G[all, j],
    the last state.  Each state fans out to its successors in increasing
    mask order, the factor at the legs (k, j) keyed by (k, j)."""
    full = (1 << n) - 2
    edges = [((mask, j), (mask | 1 << t, t), (t, j), (t, j))
             for mask in range(0, full, 2)
             for j in [j for j in range(1, n) if mask >> j & 1] or [0]
             for t in range(1, n) if not mask >> t & 1]
    edges += [((full, j), "sum", (0, j), (0, j)) for j in range(1, n)]
    return _plan(n, edges, ["sum"])


def check_unitarity(spec, z, *, tolerance=None):
    """Unitarity: R_12(z) R_21(-z) is N^2 (wp(N hbar) - wp(z)) times Id.

    This is the order-2 cyclic sum, :func:`check_cyclic_batch` run on one
    request at the points (z, 0).
    """
    report = _alone(_cyclic_batch, (spec, 2, [_as_complex("z", z), 0], 1, tolerance))
    report.name = "unitarity"
    return report


def check_nth_order(spec, n, points, outer=1, *, tolerance=None):
    """n-th member of the identity hierarchy at the given points.

    n = 1 compares the same-site matrix with its closed form.  For n >= 2
    the cyclic product sum must be scalar with coefficient
    (-N)^n wp^(n-2)(N hbar), less N^2 wp(z_1 - z_2) at n = 2, which is
    unitarity.  The sum S is applied to the fixed probe block X instead of
    being formed (Freivalds' check), and its coefficient and non-scalar
    residual are read off SX by ``tensor_ops._probe_scalar``.  The details
    carry a cross-check against N^n times the scalar cyclic sum at
    eta = N hbar.  This is :func:`check_cyclic_batch` run on one request.
    """
    # an outer of None would request the outer-independence check
    n, outer = _as_index("n", n), _as_index("outer", outer)
    return _alone(_cyclic_batch, (spec, n, points, outer, tolerance))


def check_outer_index_independence(spec, n, points, *, tolerance=None):
    """The cyclic product sum must not depend on the distinguished site.

    Compares the probed sums S_a X of every outer site a, all n computed in
    lockstep by one subset DP; the coefficients are <X, S_a X> / <X, X>.
    This is :func:`check_cyclic_batch` run on one request.
    """
    return _alone(_cyclic_batch, (spec, n, points, None, tolerance))


def check_cyclic_batch(requests):
    """Run many cyclic-sum checks, with one r_matrix call for all their
    factors and one subset DP for all sums at one N and n.

    Each request is a tuple (spec, n, points, outer, tolerance): the
    arguments of :func:`check_nth_order`, or, with outer None, those of
    :func:`check_outer_index_independence`.  Returns, for each request in
    order, its :class:`IdentityReport`, or the :class:`RmxError` that its
    check raises alone, which fails that request only; a request that is
    not such a 5-tuple is a :class:`UsageError`.  This is
    :func:`_cyclic_batch` run through ``errors._joint``: if the batch
    raises, each request runs alone.
    """
    return _joint(_cyclic_batch, requests, lambda _: None)


def _cyclic_batch(requests):
    """The report of each request of :func:`check_cyclic_batch`; the first
    RmxError met is raised.

    Each request's head (:func:`_cyclic_head`) checks its arguments and
    computes wp^(n-2)(N hbar) before any R-matrix is built; n = 1 ends
    there.  One r_matrix call builds the factors of all requests, one
    ``_probe_jobs`` call runs the jobs of all, one DP per N and n, and each
    report, with the rest of the right-hand side and the scalar
    cross-check, is read off its sums.  A slab's sum does not depend on the
    slabs run beside it, so every report equals that of the check run
    alone.
    """
    heads = [_cyclic_head(request) for request in requests]
    rows = [head for head in heads if isinstance(head, tuple)]
    ops = _stacked(r_matrix, [(spec, diffs, None) for spec, diffs, _, _ in rows])
    sums = _probe_jobs([job(op) for (_, _, job, _), op in zip(rows, ops)])
    reports = iter([finish(s[0]) for (_, _, _, finish), s in zip(rows, sums)])
    return [next(reports) if isinstance(head, tuple) else head for head in heads]


def _cyclic_head(request):
    """A request of check_cyclic_batch up to its factors: the report at
    n = 1, else (spec, the differences z_i - z_j of _pair_differences, the
    function of their R-matrices that gives the job of the sums, the
    function of the probed sums that gives the report)."""
    sequence = isinstance(request, (tuple, list))
    if not sequence or len(request) != 5:
        raise UsageError("a cyclic-sum request is (spec, n, points, outer, tolerance), got "
                         + (f"{len(request)} fields" if sequence else repr(request)))
    spec, n, points, outer, tolerance = request
    N, n = spec.site_dim, _as_index("n", n)
    if outer is None:
        if n < 3:
            raise DimensionMismatch("outer index independence needs n >= 3")
        pairs, diffs = _pair_differences(spec, n, points)
        outers = range(n)

        def finish(sums):
            x = _probe_block(N ** n)
            residual = max(frobenius_distance(sums[0], s) for s in sums[1:])
            coeffs = [_probe_scalar(x, s)[0] for s in sums]
            return _verdict(f"outer-independence-{n}", residual, tolerance, spec.kind,
                            N, n, coefficients=coeffs,
                            algorithm="lockstep-subset-dp-probe", probes=x.shape[1])
    else:
        outer = _as_index("outer", outer)
        if n == 1:
            if outer != 1:
                raise IndexOutOfRange(f"outer index {outer} not in 1..1")
            if len(points) != 1:
                raise DimensionMismatch(f"n = 1 takes one point, got {len(points)}")
            z = _as_complex("a point", points[0])
            mat = r_same_site(spec, z)
            closed = same_site_closed_form(spec, z)
            residual = frobenius_distance(mat, closed * np.eye(N))
            return _verdict("same-site", residual, tolerance, spec.kind, N, 2,
                            closed_form=closed)

        # the right-hand side first: a wp order above MAX_WP_DERIV_ORDER
        # raises before any R-matrix is built
        eta = N * spec.hbar
        wp = weierstrass_p(eta, spec.lattice, deriv_order=n - 2)
        pairs, diffs = _pair_differences(spec, n, points, outer)
        outers = [outer - 1]

        def finish(sums):
            # unitarity subtracts wp(z_1 - z_2), the same for either outer site
            expected = (-N) ** n * (wp - weierstrass_p(diffs[0], spec.lattice) if n == 2
                                    else wp)
            scalar_sum = scalar_cyclic_sum(n, outer, eta, points, spec.lattice)
            (y,) = sums
            x = _probe_block(N ** n)
            coeff, nonscalar = _probe_scalar(x, y)
            coeff_resid = abs(coeff - expected) / max(abs(expected), 1.0)
            residual = max(nonscalar, coeff_resid)
            cross = abs(coeff - N ** n * scalar_sum) / max(abs(coeff), 1.0)
            return _verdict("order-2 (unitarity)" if n == 2 else f"order-{n}", residual,
                            tolerance, spec.kind, N, n, coefficient=coeff,
                            expected=expected, nonscalar_residual=nonscalar,
                            scalar_cross_residual=cross, orderings=math.factorial(n - 1),
                            algorithm="subset-dp-probe", probes=x.shape[1])

    return spec, diffs, lambda ops: (
        _dp_plan(n), [(dict(zip(pairs, ops)), a) for a in outers]), finish


# R_12 R_13 R_23 X and R_23 R_13 R_12 X
_QYBE_FACTORS = (("r", 1, 2), ("r", 1, 3), ("r", 2, 3))
_QYBE = _plan_sides(3, [[[("r", 1, 2), ("r", 1, 3), ("r", 2, 3)]],
                        [[("r", 2, 3), ("r", 1, 3), ("r", 1, 2)]]])


def check_qybe(spec, points, *, tolerance=None):
    """Quantum Yang-Baxter equation on three sites.

    R_12(z_12) R_13(z_13) R_23(z_23) = R_23(z_23) R_13(z_13) R_12(z_12),
    checked as the relative distance of the two sides applied to the probe
    block X, one plan of ``tensor_ops``.
    """
    return _alone(_qybe_batch, (spec, points, tolerance))


def _qybe_batch(requests):
    """check_qybe on each request (spec, points, tolerance): its report; the
    first RmxError met is raised.  The factors of all requests come from one
    r_matrix call, and both sides of each run as slabs of one plan."""
    def diffs(spec, points, tolerance):
        if len(points) != 3:
            raise DimensionMismatch(f"QYBE takes three points, got {len(points)}")
        z1, z2, z3 = (_as_complex("a point", p) for p in points)
        return spec, np.array([z1 - z2, z1 - z3, z2 - z3]), None

    ops = _stacked(r_matrix, [diffs(*request) for request in requests])
    sides = _probe_jobs([(_QYBE, [(dict(zip(_QYBE_FACTORS, op)), 0)]) for op in ops])
    return [_verdict("qybe", frobenius_distance(*s[:, 0]), tolerance, spec.kind,
                     spec.site_dim, 3) for (spec, _, tolerance), s in zip(requests, sides)]


# R^hbar_ac R^eta_cb X and R^eta_ab R^(hbar-eta)_ac X + R^(eta-hbar)_cb R^hbar_ab X
# at the sites (a, c, b) = (1, 3, 2)
_AYBE_FACTORS = (("h", 1, 3), ("e", 3, 2), ("e", 1, 2), ("h-e", 1, 3), ("e-h", 3, 2),
                 ("h", 1, 2))
_AYBE = _plan_sides(3, [[[("h", 1, 3), ("e", 3, 2)]],
                        [[("e", 1, 2), ("h-e", 1, 3)], [("e-h", 3, 2), ("h", 1, 2)]]])


def check_aybe(spec, points, second_hbar, *, tolerance=None):
    """Associative Yang-Baxter equation with two quantization parameters.

    With sites (a, c, b) = (1, 3, 2) and eta = second_hbar:

        R^hbar_ac R^eta_cb =
            R^eta_ab R^(hbar-eta)_ac + R^(eta-hbar)_cb R^hbar_ab,

    every factor taken at the difference of its site points, and both
    sides applied to the probe block X as in :func:`check_qybe`.

    Raises
    ------
    DegenerateArguments
        If hbar - eta (or eta itself) sits on or near the pole set, where
        the right-hand side degenerates.
    """
    return _alone(_aybe_batch, (spec, points, second_hbar, tolerance))


def _aybe_batch(requests):
    """check_aybe on each request (spec, points, second_hbar, tolerance):
    its report, with the one r_matrix call, the one plan run and the raising
    of :func:`_qybe_batch`."""
    def factors(spec, points, second_hbar, tolerance):
        if len(points) != 3:
            raise DimensionMismatch(f"AYBE takes three points, got {len(points)}")
        hbar, eta = spec.hbar, _as_complex("second_hbar", second_hbar)
        try:
            spec.validate_hbar(eta)
            spec.validate_hbar(hbar - eta)
        except (PoleProximity, ZeroArgument) as exc:
            raise DegenerateArguments(
                f"AYBE parameters degenerate: {exc}"
            ) from exc
        za, zb, zc = (_as_complex("a point", p) for p in points)
        ac, cb, ab = za - zc, zc - zb, za - zb
        return (spec, np.array([ac, cb, ab, ac, cb, ab]),
                np.array([hbar, eta, eta, hbar - eta, eta - hbar, hbar]))

    ops = _stacked(r_matrix, [factors(*request) for request in requests])
    sides = _probe_jobs([(_AYBE, [(dict(zip(_AYBE_FACTORS, op)), 0)]) for op in ops])
    return [_verdict("aybe", frobenius_distance(*s[:, 0]), request[3], request[0].kind,
                     request[0].site_dim, 3) for request, s in zip(requests, sides)]


# R(z, hbar) X and -P R(-z, -hbar) P X, the second factor on the legs (2, 1)
_SKEW_FACTORS = (("r", 1, 2), ("-r", 2, 1))
_SKEW = _plan_sides(2, [[[("r", 1, 2)]], [[("-r", 2, 1)]]])


def check_skew_symmetry(spec, z, *, tolerance=None):
    """Skew symmetry: R(z, hbar) = -P R(-z, -hbar) P, both sides applied to
    the probe block X as in :func:`check_qybe`."""
    return _alone(_skew_symmetry_batch, (spec, z, tolerance))


def _skew_symmetry_batch(requests):
    """check_skew_symmetry on each request (spec, z, tolerance): its report,
    with the one r_matrix call, the one plan run and the raising of
    :func:`_qybe_batch`."""
    def parts(spec, z, _):
        z = _as_complex("z", z)
        return spec, np.array([z, -z]), np.array([spec.hbar, -spec.hbar])

    ops = _stacked(r_matrix, [parts(*request) for request in requests])
    sides = _probe_jobs([(_SKEW, [(dict(zip(_SKEW_FACTORS, (op[0], -op[1]))), 0)])
                         for op in ops])
    return [_verdict("skew-symmetry", frobenius_distance(*s[:, 0]), tolerance, spec.kind,
                     spec.site_dim, 2) for (spec, _, tolerance), s in zip(requests, sides)]
