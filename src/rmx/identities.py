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

For n >= 3 the checks apply the sum to a fixed probe block by a subset DP
over the sites (:func:`_cyclic_apply`).  Every sum is one slab of the DP:
:func:`check_cyclic_batch` runs the sums of many checks at one N and n, such
as every order-n and outer-n case of a ``rmx verify`` part, as the slabs of
one DP, and the two public checks are that entry run on one request.  The DP
runs in real arithmetic, on the real and imaginary planes of its states and
on the split real forms [[Re A, -Im A], [Im A, Re A]] of its factors A.  It
follows a plan cached per n in which every state has a slot of one scratch
workspace per process, and each step is one copy of its source into the
moved operand and one real matmul into its target's slot, on views built
once per pass shape.  The workspace is created on first use, grows to the
largest pass run so far and keeps that size, (slots + 2) B D k complex
entries of two floats each:
1.5 MB after the sums up to n = 7 at N = 2, 2.9 MB after the outer check at
N = 2, n = 8.  A sum deeper than ``rmx verify`` runs gets a workspace of its
own, dropped on return.

Each check returns an :class:`IdentityReport` carrying the measured
residual, the tolerance it was judged against, and diagnostic details.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateArguments,
    DimensionMismatch,
    IndexOutOfRange,
    PoleProximity,
    RmxError,
    ZeroArgument,
    _as_index,
)
from .special_functions import MAX_WP_DERIV_ORDER, scalar_cyclic_sum, weierstrass_p
from .rmatrix import r_matrix, r_same_site, same_site_closed_form
from .tensor_ops import (
    _PROBES,
    _check_cap,
    _probe_block,
    _probe_scalar,
    _product,
    _two_site_layout,
    frobenius_distance,
    is_scalar_operator,
    permutation_operator,
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
    """
    label = kind.value if hasattr(kind, "value") else str(kind)
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
    pts = [complex(p) for p in points]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return pairs, np.array([pts[i] - pts[j] for i, j in pairs])


def _pair_factors(spec, n, points, outer=1):
    """R_ij(z_i - z_j) for every ordered pair of 0-based sites i != j; the
    arguments are screened before any R-matrix is built."""
    pairs, z = _pair_differences(spec, n, points, outer)
    return dict(zip(pairs, r_matrix(spec, z)))


def cyclic_sum_cost(site_dim, n):
    """Complex multiply-adds of one probed cyclic product sum on n sites.

    Each two-site step of the subset DP applies an N^2 x N^2 factor to the
    D x k state, D = N^n and k = min(4, D) probe columns: D N^2 k
    multiply-adds.  There are n - 1 steps into the first layer, n - 1
    closing the chains, and one from each of the m C(n-1, m) states with m
    sites to each of its n - 1 - m successors, (n-1)(n-2) 2^(n-3) in all.
    """
    steps = 2 * (n - 1) + (n - 1) * (n - 2) * 2 ** n // 8
    dim = site_dim ** n
    return steps * dim * site_dim ** 2 * min(_PROBES, dim)


def _layouts(factors, n):
    """For each pair of 0-based sites (k, j), the factor R_kj of
    _pair_factors, checked and laid out for the two-site kernel at the
    sites (k + 1, j + 1) of n."""
    return {(k, j): _two_site_layout([op], k + 1, j + 1, n)
            for (k, j), op in factors.items()}


def _split_factors(slabs, n, pairs):
    """For each pair of legs (k, j) of ``pairs``, the factors R_{k+a, j+a}
    (sites mod n) of every slab (factors, a) of ``slabs``, factors as
    _pair_factors builds them, as one (P, B, 2 N^2, 2 N^2) real stack: each
    factor A on the legs k and j taken in increasing order, split into
    [[Re A, -Im A], [Im A, Re A]], which acts on the real and imaginary
    planes of a state stacked in that order."""
    ops = np.array([[factors[(k + a) % n, (j + a) % n] for factors, a in slabs]
                    for k, j in pairs])
    P, B, M = ops.shape[:3]
    N = math.isqrt(M)
    swap = [i for i, (k, j) in enumerate(pairs) if k > j]
    ops[swap] = (ops[swap].reshape(-1, B, N, N, N, N).transpose(0, 1, 3, 2, 5, 4)
                 .reshape(-1, B, M, M))
    split = np.empty((P, B, 2, M, 2, M))
    split[:, :, 0, :, 0] = split[:, :, 1, :, 1] = ops.real
    split[:, :, 1, :, 0] = ops.imag
    np.negative(ops.imag, out=split[:, :, 0, :, 1])
    return split.reshape(P, B, 2 * M, 2 * M)


#: The most complex entries in one DP state, all slabs together.  The slabs
#: of a part, every sum of its order-n and outer-n cases, run in passes of as
#: many as fit, so that a state stays in cache and the live states stay
#: small: unbounded, the outer check ran about 20% slower at N = 4, n = 6 and
#: peaked at 12 MB instead of 3.2 MB at N = 2, n = 8.  At D >= 512 each pass
#: runs one slab.  A state holds its D x k complex entries per slab, two
#: floats each (its real and imaginary planes), in whatever leg order the
#: plan stores it in, in one slot of the workspace, and a pass needs
#: slots + 2 of them: at N = 2 that is 46 x 2048 entries (1.5 MB) at n = 7
#: and 89 x 2048 (2.9 MB) at n = 8.
_STATE_ENTRIES = 2048


class _Step(NamedTuple):
    """One step of the subset DP: the state in slot ``src``, transposed by
    ``front`` (its plane leg, the two legs of the factor ``pair`` in site
    order, then the state's other legs in its order), is multiplied by that
    factor and becomes the state in slot ``dst`` when ``add`` is None, or is
    added to it through the transpose ``add`` into the leg order it has.
    ``last`` marks the source's last read, after which its slot is free."""

    src: int
    dst: int
    pair: int
    front: tuple
    add: tuple | None
    last: bool


class _Plan(NamedTuple):
    """The steps of the subset DP on n legs, in increasing mask order, with
    the factor ``pairs`` (k, j) they index, the number of state ``slots``
    they use and the leg order ``out`` of the sum, in the slot of the last
    step."""

    steps: tuple
    pairs: tuple
    slots: int
    out: tuple


@lru_cache(maxsize=32)
def _dp_plan(n):
    """The plan of :func:`_cyclic_apply` on n legs.  A state's legs are
    stored in the order of the product that first reached it: the two legs
    of its factor in site order, then the other legs of the source in the
    source's order.  The plane leg (real, imaginary) always comes first,
    ahead of the n legs.  A state takes a free slot when it is first written
    and gives it back after its last read; the most recently freed slot is
    taken first.  The initial state is in slot 0."""
    full = (1 << n) - 2
    # each state fans out to its successors, in increasing mask order; the
    # sum is the last state
    fans = itertools.chain(
        (((mask, j), [((mask | 1 << t, t), (t, j))
                      for t in range(1, n) if not mask >> t & 1])
         for mask in range(0, full, 2)
         for j in [j for j in range(1, n) if mask >> j & 1] or [0]),
        (((full, j), [("sum", (0, j))]) for j in range(1, n)))
    slot, order, pairs, steps = {(0, 0): 0}, {(0, 0): tuple(range(n))}, {}, []
    free, slots = [], 1
    # the plans stay cached: share each distinct tuple between the steps
    shared = {}.setdefault
    for src, fan in fans:
        stored, src_slot = order.pop(src), slot.pop(src)
        for i, (dst, pair) in enumerate(fan):
            last = i == len(fan) - 1
            if last:
                # a step copies its source out before it writes its product,
                # so the product may take the source's slot
                free.append(src_slot)
            product = tuple(sorted(pair)) + tuple(x for x in stored if x not in pair)
            front = (0, 1, *(2 + stored.index(leg) for leg in product), n + 2)
            if dst in slot:
                add = (0, 1, *(2 + product.index(leg) for leg in order[dst]), n + 2)
                add = shared(add, add)
            else:
                if not free:
                    free.append(slots)
                    slots += 1
                slot[dst], order[dst], add = free.pop(), product, None
            steps.append(_Step(src_slot, slot[dst], pairs.setdefault(pair, len(pairs)),
                               shared(front, front), add, last))
    return _Plan(tuple(steps), tuple(pairs), slots, order["sum"])


class _Workspace:
    """The one scratch buffer of the DP in this process, created on first
    use and grown to the largest pass run so far, with the views of each
    pass shape (n, N, m, B) built on it once: B slabs of D x m complex
    entries, as a real and an imaginary plane, for each slot of the plan,
    for the moved operand and for the product of an add step, 2 (slots + 2)
    B D m floats in all.  Growing drops the views of the old buffer.  A pass
    holds ``lock`` while it uses the views, so that DPs run from several
    threads take turns."""

    def __init__(self):
        self.buffer = np.empty(0)
        self.views = {}
        self.lock = threading.Lock()

    def for_pass(self, n, N, m, B):
        """The views of a pass: the initial state, the moved operand as a
        state and as a (B, 2 N^2, D m / N^2) matrix stack, each step's
        (source, factor, product, target, added product) and the sum."""
        key = (n, N, m, B)
        views = self.views.get(key)
        if views is not None:
            return views
        plan = _dp_plan(n)
        shape = (B, 2) + (N,) * n + (m,)
        size, mat = math.prod(shape), (B, 2 * N * N, -1)
        if self.buffer.size < (plan.slots + 2) * size:
            self.buffer = np.empty((plan.slots + 2) * size)
            self.views.clear()
        states = [self.buffer[i * size:(i + 1) * size].reshape(shape)
                  for i in range(plan.slots + 2)]
        mats = [state.reshape(mat) for state in states]
        # the last two slots are the moved operand and the product of an add
        # step; the steps share the views of each slot, of each source
        # transpose and of each add transpose
        fronts, adds, steps = {}, {}, []
        for s in plan.steps:
            src = fronts.get((s.src, s.front))
            if src is None:
                src = fronts[s.src, s.front] = states[s.src].transpose(s.front)
            if s.add is None:
                steps.append((src, s.pair, mats[s.dst], None, None))
            else:
                if s.add not in adds:
                    adds[s.add] = states[-1].transpose(s.add)
                steps.append((src, s.pair, mats[-1], states[s.dst], adds[s.add]))
        views = self.views[key] = (states[0], states[-2], mats[-2], tuple(steps),
                                   states[plan.steps[-1].dst])
        return views


_workspace = _Workspace()


def _cyclic_apply(slabs, n, x):
    """S x for each slab (factors, a) of ``slabs``, stacked in that order,
    where S is the cyclic product sum of the two-site ``factors`` of
    _pair_factors from the 0-based outer site a back to itself.  Every
    slab's factors act on the same N.

    The slabs run in lockstep as one subset DP, in passes of at most
    _STATE_ENTRIES.  Slab (factors, a) works on relabelled sites: tensor leg
    i carries site (i + a) % n, so every slab starts at leg 0 and, at the
    legs (k, j), applies its own R_{k+a, j+a}, split and stacked for the
    pass by :func:`_split_factors`.  A state (T, k) holds the sum of
    R_{k i_m} ... R_{i_1 0} x over the orderings of the leg set T that end at k:
    G[T + {k}, k] = sum_j R_kj G[T, j], and S x = sum_j R_0j G[all, j].  The
    states are visited in increasing mask order, so each is complete when
    reached, and its slot is reused after it has fed its successors.

    The DP runs in real arithmetic: a state holds the real and imaginary
    planes of its entries, and the plane is one more leg that every product
    puts first.  Each step follows the cached :func:`_dp_plan` on the views
    of the process's workspace: one copy of the source state, with the plane
    and the factor's two legs first, into the moved operand, and one batched
    (B, 2 N^2, 2 N^2) real matmul of the split factors for every slab of the
    pass, written into the target's slot or added to it through a transposed
    view.  No state is copied back to site order; only the sum of each slab
    is, together with its relabelling, into the real and imaginary parts of
    the complex result.
    """
    tensor = x.reshape((math.isqrt(len(slabs[0][0][0, 1])),) * n + (-1,))
    plan = _dp_plan(n)
    space = _workspace if n <= MAX_WP_DERIV_ORDER + 2 else _Workspace()
    per_pass = max(1, _STATE_ENTRIES // x.size)
    sums = np.empty((len(slabs),) + tensor.shape, dtype=complex)
    in_planes, out_planes = (tensor.real, tensor.imag), (sums.real, sums.imag)
    for lo in range(0, len(slabs), per_pass):
        group = slabs[lo:lo + per_pass]
        ops = list(_split_factors(group, n, plan.pairs))
        with space.lock:
            first, moved, moved_mat, steps, total = space.for_pass(
                n, tensor.shape[0], tensor.shape[-1], len(group))
            for b, (_, a) in enumerate(group):
                for c, plane in enumerate(in_planes):
                    np.copyto(first[b, c],
                              plane.transpose(*((i + a) % n for i in range(n)), n))
            for src, pair, out, state, product in steps:
                np.copyto(moved, src)
                np.matmul(ops[pair], moved_mat, out=out)
                if state is not None:
                    np.add(state, product, out=state)
            for b, (_, a) in enumerate(group):
                back = (*(plan.out.index((i - a) % n) for i in range(n)), n)
                for c, plane in enumerate(out_planes):
                    np.copyto(plane[lo + b], total[b, c].transpose(back))
    return sums.reshape((len(slabs),) + x.shape)


def check_unitarity(spec, z, *, tolerance=None):
    """Unitarity: R_12(z) R_21(-z) is N^2 (wp(N hbar) - wp(z)) times Id."""
    N = spec.site_dim
    z = complex(z)
    perm = permutation_operator(N)
    r12, r_neg = r_matrix(spec, np.array([z, -z]))
    r21 = perm @ r_neg @ perm
    prod = r12 @ r21
    wp_nh, wp_z = weierstrass_p(np.array([N * spec.hbar, z]), spec.lattice).tolist()
    expected = N * N * (wp_nh - wp_z)
    _, coeff, nonscalar = is_scalar_operator(prod, tol=np.inf)
    coeff_resid = abs(coeff - expected) / max(abs(expected), 1.0)
    residual = max(nonscalar, coeff_resid)
    return _verdict("unitarity", residual, tolerance, spec.kind, N, 2,
                    coefficient=coeff, expected=expected,
                    nonscalar_residual=nonscalar)


def check_nth_order(spec, n, points, outer=1, *, tolerance=None):
    """n-th member of the identity hierarchy at the given points.

    n = 1 compares the same-site matrix with its closed form, n = 2 is
    unitarity at z = points[0] - points[1], and n >= 3 checks that the
    cyclic product sum is scalar with coefficient
    (-N)^n wp^(n-2)(N hbar).  For n >= 3 the sum S is applied to the
    fixed probe block X instead of being formed (Freivalds' check), and
    its coefficient and non-scalar residual are read off SX by
    ``tensor_ops._probe_scalar``.  The details carry a cross-check against
    N^n times the scalar cyclic sum at eta = N hbar.  This is
    :func:`check_cyclic_batch` run on one request.
    """
    # an outer of None would request the outer-independence check
    n, outer = _as_index("n", n), _as_index("outer", outer)
    return _alone((spec, n, points, outer, tolerance))


def check_outer_index_independence(spec, n, points, *, tolerance=None):
    """The cyclic product sum must not depend on the distinguished site.

    Compares the probed sums S_a X of every outer site a, all n computed in
    lockstep by one subset DP; the coefficients are <X, S_a X> / <X, X>.
    This is :func:`check_cyclic_batch` run on one request.
    """
    return _alone((spec, n, points, None, tolerance))


def _alone(request):
    """The report of one request of check_cyclic_batch; its error is raised."""
    (out,) = check_cyclic_batch([request])
    if isinstance(out, RmxError):
        raise out
    return out


def check_cyclic_batch(requests):
    """Run many cyclic-sum checks, with one subset DP for all sums at one N
    and n.

    Each request is a tuple (spec, n, points, outer, tolerance): the
    arguments of :func:`check_nth_order`, or, with outer None, those of
    :func:`check_outer_index_independence`.  Returns, for each request in
    order, its :class:`IdentityReport`, or the :class:`RmxError` that its
    check raises alone, which fails that request only.

    Each check runs in two halves.  The first checks the arguments and
    computes everything that can raise, in the order the check alone
    raises: wp^(n-2)(N hbar), the factors of _pair_factors and the scalar
    cross-check; n = 1 and 2 end there.  Then one :func:`_cyclic_apply` per
    (N, n) runs the slabs of all its requests, and the second halves read
    the reports off the sums.  A slab's sum does not depend on the slabs run
    beside it, so every report equals that of the check run alone.
    """
    results, jobs = [], {}
    for i, (spec, n, points, outer, tolerance) in enumerate(requests):
        try:
            if outer is None:
                half = _outer_half(spec, n, points, tolerance)
            else:
                half = _nth_order_half(spec, n, points, outer, tolerance)
        except RmxError as exc:
            half = exc
        if isinstance(half, tuple):
            n, slabs, finish = half
            jobs.setdefault((spec.site_dim, n), []).append((i, slabs, finish))
        results.append(half)
    for (N, n), group in jobs.items():
        x = _probe_block(N ** n)
        sums = iter(_cyclic_apply([slab for _, slabs, _ in group for slab in slabs],
                                  n, x))
        for i, slabs, finish in group:
            results[i] = finish(x, [next(sums) for _ in slabs])
    return results


def _nth_order_half(spec, n, points, outer, tolerance):
    """check_nth_order up to its DP: the report itself at n = 1 and 2, else
    (n, the slab of its sum, the function of the probe block and the sum
    that gives the report)."""
    N = spec.site_dim
    n, outer = _as_index("n", n), _as_index("outer", outer)
    if n == 1:
        if len(points) != 1:
            raise DimensionMismatch(f"n = 1 takes one point, got {len(points)}")
        z = complex(points[0])
        mat = r_same_site(spec, z)
        closed = same_site_closed_form(spec, z)
        residual = frobenius_distance(mat, closed * np.eye(N))
        return _verdict("same-site", residual, tolerance, spec.kind, N, 2,
                        closed_form=closed)

    if n == 2:
        if len(points) != 2:
            raise DimensionMismatch(f"n = 2 takes two points, got {len(points)}")
        rep = check_unitarity(spec, complex(points[0]) - complex(points[1]),
                              tolerance=tolerance)
        rep.name = "order-2 (unitarity)"
        return rep

    # the right-hand side first: a wp order above MAX_WP_DERIV_ORDER raises
    # before any R-matrix is built
    eta = N * spec.hbar
    expected = (-N) ** n * weierstrass_p(eta, spec.lattice, deriv_order=n - 2)
    factors = _pair_factors(spec, n, points, outer)
    scalar_sum = scalar_cyclic_sum(n, outer, eta, points, spec.lattice)

    def finish(x, sums):
        (y,) = sums
        coeff, nonscalar = _probe_scalar(x, y)
        coeff_resid = abs(coeff - expected) / max(abs(expected), 1.0)
        residual = max(nonscalar, coeff_resid)
        cross = abs(coeff - N ** n * scalar_sum) / max(abs(coeff), 1.0)
        return _verdict(f"order-{n}", residual, tolerance, spec.kind, N, n,
                        coefficient=coeff, expected=expected,
                        nonscalar_residual=nonscalar, scalar_cross_residual=cross,
                        orderings=math.factorial(n - 1),
                        algorithm="subset-dp-probe", probes=x.shape[1])

    return n, [(factors, outer - 1)], finish


def _outer_half(spec, n, points, tolerance):
    """check_outer_index_independence up to its DP: (n, the slabs of its n
    sums, the function of the probe block and the sums that gives the
    report)."""
    n = _as_index("n", n)
    if n < 3:
        raise DimensionMismatch("outer index independence needs n >= 3")
    factors = _pair_factors(spec, n, points)

    def finish(x, sums):
        residual = max(frobenius_distance(sums[0], s) for s in sums[1:])
        coeffs = [_probe_scalar(x, s)[0] for s in sums]
        return _verdict(f"outer-independence-{n}", residual, tolerance,
                        spec.kind, spec.site_dim, n, coefficients=coeffs,
                        algorithm="lockstep-subset-dp-probe", probes=x.shape[1])

    return n, [(factors, a) for a in range(n)], finish


def check_qybe(spec, points, *, tolerance=None):
    """Quantum Yang-Baxter equation on three sites.

    R_12(z_12) R_13(z_13) R_23(z_23) = R_23(z_23) R_13(z_13) R_12(z_12),
    checked as the relative distance of the two sides applied to the probe
    block X (``tensor_ops._product``).
    """
    if len(points) != 3:
        raise DimensionMismatch(f"QYBE takes three points, got {len(points)}")
    z1, z2, z3 = (complex(p) for p in points)
    r12, r13, r23 = r_matrix(spec, np.array([z1 - z2, z1 - z3, z2 - z3]))
    r12, r13, r23 = (r12, 1, 2), (r13, 1, 3), (r23, 2, 3)
    residual = frobenius_distance(
        _product(3, r12, r13, r23), _product(3, r23, r13, r12)
    )
    return _verdict("qybe", residual, tolerance, spec.kind, spec.site_dim, 3)


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
    if len(points) != 3:
        raise DimensionMismatch(f"AYBE takes three points, got {len(points)}")
    hbar, eta = spec.hbar, complex(second_hbar)
    try:
        spec.validate_hbar(eta)
        spec.validate_hbar(hbar - eta)
    except (PoleProximity, ZeroArgument) as exc:
        raise DegenerateArguments(
            f"AYBE parameters degenerate: {exc}"
        ) from exc
    za, zb, zc = (complex(p) for p in points)
    ac, cb, ab = za - zc, zc - zb, za - zb
    r_ac_h, r_cb_e, r_ab_e, r_ac_he, r_cb_eh, r_ab_h = r_matrix(
        spec,
        np.array([ac, cb, ab, ac, cb, ab]),
        np.array([hbar, eta, eta, hbar - eta, eta - hbar, hbar]),
    )

    lhs = _product(3, (r_ac_h, 1, 3), (r_cb_e, 3, 2))
    rhs = (_product(3, (r_ab_e, 1, 2), (r_ac_he, 1, 3))
           + _product(3, (r_cb_eh, 3, 2), (r_ab_h, 1, 2)))
    residual = frobenius_distance(lhs, rhs)
    return _verdict("aybe", residual, tolerance, spec.kind, spec.site_dim, 3)


def check_skew_symmetry(spec, z, *, tolerance=None):
    """Skew symmetry: R(z, hbar) = -P R(-z, -hbar) P."""
    hbar, z = spec.hbar, complex(z)
    perm = permutation_operator(spec.site_dim)
    lhs, r_neg = r_matrix(spec, np.array([z, -z]), np.array([hbar, -hbar]))
    rhs = -perm @ r_neg @ perm
    residual = frobenius_distance(lhs, rhs)
    return _verdict("skew-symmetry", residual, tolerance, spec.kind, spec.site_dim, 2)
