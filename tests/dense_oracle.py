"""Literal references for the contractions and the cyclic sums.

The package applies every two-site factor locally (``rmx.apply_two_site``)
and never forms an embedded N**n x N**n matrix.  The tests compare that
path against the dense embed-and-multiply construction kept here: the
embedding itself, the two sides of each three-site relation (QYBE, AYBE,
the hbar derivative and flatness), and the block Lax operator with its
powers.  The
package also sums the scalar cyclic sum by a subset DP; the reference
``literal_cyclic_sum`` sums its (n-1)! orderings term by term.  The probed
subset DP of the n-site checks runs in real arithmetic on split real and
imaginary planes and keeps its states in the leg order its matmuls leave
them in; ``canonical_cyclic_apply`` is the same DP, split factors
``split_factor`` included, with every state copied back to site order after
each step, and must agree with it bit for bit.
"""

import itertools
import math

import numpy as np

from rmx import classical_closed_form, cyclic_orderings, kronecker_phi, r_matrix
from rmx import identities, rmatrix
from rmx.tensor_ops import _two_site_layout


def embed_two_site(op, site_a, site_b, site_dim, n_sites):
    """Matrix of a two-site operator at 1-based sites (site_a, site_b) of an
    n-site product, shape (site_dim**n_sites,) * 2, built as op tensor Id
    with the tensor factors moved into place."""
    n = site_dim
    dim = n ** n_sites
    op = np.asarray(op, dtype=complex)
    rest = n ** (n_sites - 2)
    big = np.kron(op, np.eye(rest, dtype=complex)).reshape((n,) * (2 * n_sites))
    # tensor factors currently ordered (a, b, rest...); route them to place
    src = {site_a - 1: 0, site_b - 1: 1}
    nxt = 2
    for s in range(n_sites):
        if s not in src:
            src[s] = nxt
            nxt += 1
    perm = [src[s] for s in range(n_sites)]
    big = big.transpose(perm + [n_sites + p for p in perm])
    return np.ascontiguousarray(big.reshape(dim, dim))


def literal_cyclic_sum(n, a, eta, points, params):
    """sum over the orderings (i_1, ..., i_{n-1}) of the sites other than a
    (1-based) of phi(eta, z_a - z_i1) phi(eta, z_i1 - z_i2) ...
    phi(eta, z_i{n-1} - z_a), one product per ordering."""
    pts = np.asarray(points, dtype=complex)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    vals = kronecker_phi(complex(eta), np.array([pts[i] - pts[j] for i, j in pairs]),
                         params)
    table = dict(zip(pairs, np.atleast_1d(vals)))
    total = 0j
    for ordering in cyclic_orderings(n, a):
        chain = (a - 1,) + tuple(i - 1 for i in ordering) + (a - 1,)
        term = 1.0 + 0j
        for u, v in zip(chain[:-1], chain[1:]):
            term *= table[u, v]
        total += term
    return total


def qybe_sides(spec, points, r=r_matrix):
    """The dense sides R_12 R_13 R_23 and R_23 R_13 R_12 of QYBE, with the
    factors from one ``r(spec, z)`` call on z_12, z_13 and z_23."""
    z1, z2, z3 = points
    r12, r13, r23 = (embed_two_site(op, a, b, spec.site_dim, 3) for op, (a, b) in
                     zip(r(spec, np.array([z1 - z2, z1 - z3, z2 - z3])),
                         ((1, 2), (1, 3), (2, 3))))
    return r12 @ r13 @ r23, r23 @ r13 @ r12


def aybe_sides(spec, points, eta, r=r_matrix):
    """The dense sides of AYBE at the sites (a, c, b) = (1, 3, 2),

        lhs = R^hbar_ac R^eta_cb,
        rhs = R^eta_ab R^(hbar-eta)_ac + R^(eta-hbar)_cb R^hbar_ab,

    with the six factors from one ``r(spec, z, hbar)`` call."""
    za, zb, zc = points
    ac, cb, ab, h = za - zc, zc - zb, za - zb, spec.hbar
    ops = r(spec, np.array([ac, cb, ab, ac, cb, ab]),
            np.array([h, eta, eta, h - eta, eta - h, h]))
    ac_h, cb_e, ab_e, ac_he, cb_eh, ab_h = (
        embed_two_site(op, a, b, spec.site_dim, 3) for op, (a, b) in
        zip(ops, ((1, 3), (3, 2), (1, 2), (1, 3), (3, 2), (1, 2))))
    return ac_h @ cb_e, ab_e @ ac_he + cb_eh @ ab_h


def hbar_derivative_sides(spec, za, zb, zc, r=r_matrix,
                          classical=classical_closed_form):
    """The dense sides of the three-site structure of dR/dhbar,

        lhs = dR_ab/dhbar,  rhs = R_ab r_ac + r_cb R_ab - R_ac R_cb,

    with R_ab, R_ac, R_cb from one ``r(spec, z)`` call and r_ac, r_cb from
    one ``classical(spec, z)`` call."""
    N = spec.site_dim
    r_ab, r_ac, r_cb = (embed_two_site(op, a, b, N, 3) for op, (a, b) in
                        zip(r(spec, np.array([za - zb, za - zc, zc - zb])),
                            ((1, 2), (1, 3), (3, 2))))
    cl_ac, cl_cb = (embed_two_site(op, a, b, N, 3) for op, (a, b) in
                    zip(classical(spec, np.array([za - zc, zc - zb]))[0],
                        ((1, 3), (3, 2))))
    deriv = rmatrix._deriv_hbar_matrix(spec, za - zb, spec.hbar)
    lhs = embed_two_site(deriv, 1, 2, N, 3)
    return lhs, r_ab @ cl_ac + cl_cb @ r_ab - r_ac @ r_cb


def kzb_flatness_sides(spec, points, classical=classical_closed_form):
    """The dense commutator sum [r_12, m_13 + m_23] + [r_13, m_12 + m_23],
    with (r, m) from one ``classical(spec, z)`` call on z_12, z_13 and z_23,
    and its scale max(1, max ||r|| max ||m||) over the two-site factors."""
    N = spec.site_dim
    pairs = ((1, 2), (1, 3), (2, 3))
    r_all, m_all = classical(
        spec, np.array([points[i - 1] - points[j - 1] for i, j in pairs]))
    r = {p: embed_two_site(v, *p, N, 3) for p, v in zip(pairs, r_all)}
    m = {p: embed_two_site(v, *p, N, 3) for p, v in zip(pairs, m_all)}

    def comm(x, y):
        return x @ y - y @ x

    lhs = comm(r[1, 2], m[1, 3] + m[2, 3]) + comm(r[1, 3], m[1, 2] + m[2, 3])
    scale = max(1.0, max(np.linalg.norm(v) for v in r_all)
                * max(np.linalg.norm(v) for v in m_all))
    return lhs, scale


def lax_rmatrix(config, factors=None):
    """Block Lax operator of a ``CalogeroConfig``, shape (n, n, D, D) with
    D = N**n: p_a Id on the diagonal and nu R_ab embedded at the sites
    (a, b) off it.  ``factors`` maps the 0-based pair (a, b) to R_ab; by
    default R_ab = r_matrix(spec, z_a - z_b)."""
    spec, n, zs = config.rspec, config.n_particles, config.positions
    N = spec.site_dim
    dim = N ** n
    if factors is None:
        factors = {(a, b): r_matrix(spec, zs[a] - zs[b])
                   for a, b in itertools.permutations(range(n), 2)}
    blocks = np.zeros((n, n, dim, dim), dtype=complex)
    for a in range(n):
        blocks[a, a] = config.momenta[a] * np.eye(dim)
    for (a, b), op in factors.items():
        blocks[a, b] = config.coupling * embed_two_site(op, a + 1, b + 1, N, n)
    return blocks


def block_matrix_power(blocks, power):
    """Power of an (n, n, D, D) block matrix under block multiplication,
    as the power of the nD x nD matrix it lays out."""
    n, _, dim, _ = blocks.shape
    flat = blocks.transpose(0, 2, 1, 3).reshape(n * dim, n * dim)
    out = np.linalg.matrix_power(flat, power)
    return out.reshape(n, dim, n, dim).transpose(0, 2, 1, 3)


def hbar_order_sides(spec, n, points, classical=classical_closed_form):
    """The dense sides of the r/m relation on n sites,

        lhs = sum_(c<a<b) ({r_ca, r_ab} + {r_ab, r_bc} + {r_bc, r_ca}),
        rhs = -(n - 2) sum_(b != c) m_bc,

    with (r, m) from one ``classical(spec, z)`` call on the differences of
    the ordered pairs, and the largest Frobenius norm of an embedded r."""
    N = spec.site_dim
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    r_all, m_all = classical(
        spec, np.array([points[i - 1] - points[j - 1] for i, j in pairs]))
    r = {p: embed_two_site(v, *p, N, n) for p, v in zip(pairs, r_all)}
    m_sum = sum(embed_two_site(v, *p, N, n) for p, v in zip(pairs, m_all))

    def anti(x, y):
        return x @ y + y @ x

    lhs = sum(anti(r[c, a], r[a, b]) + anti(r[a, b], r[b, c])
              + anti(r[b, c], r[c, a])
              for c, a, b in itertools.combinations(range(1, n + 1), 3))
    return lhs, -(n - 2) * m_sum, max(np.linalg.norm(v) for v in r.values())


def probe_fit(x, y):
    """The coefficient <x, y> / <x, x> of a probed product y = S x, and the
    non-scalar residual ||y - c x|| / max(||y||, 1)."""
    c = np.vdot(x, y) / np.vdot(x, x)
    return c, np.linalg.norm(y - c * x) / max(np.linalg.norm(y), 1.0)


def split_factor(ops):
    """The real form [[Re A, -Im A], [Im A, Re A]] of each complex matrix A
    of a stack: it maps the stacked planes [Re X; Im X] to those of A X."""
    return np.block([[ops.real, -ops.imag], [ops.imag, ops.real]])


def split_apply(layout, planes):
    """``tensor_ops._apply_layout`` on split planes: the (B, 2, D, m) real
    and imaginary planes of B operands, with the plane and the two legs of
    the laid-out factors moved to the front for one real matmul of the split
    factors, and the product copied back to site order."""
    ops, (B, pre, N, mid, _, m), _, _, _ = layout
    legs = planes.reshape(B, 2, pre, N, mid, N, m).transpose(0, 1, 3, 5, 2, 4, 6)
    y = split_factor(ops) @ legs.reshape(B, 2 * N * N, -1)
    return (y.reshape(B, 2, N, N, pre, mid, m).transpose(0, 1, 4, 2, 5, 3, 6)
            .reshape(planes.shape))


def canonical_cyclic_apply(slabs, n, x):
    """``identities._cyclic_apply`` with every state in site order: each step
    moves the plane and its two legs to the front, multiplies by the split
    factors, copies the product back to site order (:func:`split_apply`) and
    adds it to the state.  The states are visited in increasing mask order
    and the slabs (factors, a) run in passes of at most
    ``identities._STATE_ENTRIES`` complex entries, like the package DP."""
    tensor = x.reshape((math.isqrt(len(slabs[0][0][0, 1])),) * n + (-1,))
    full = (1 << n) - 2  # every leg but 0
    per_pass = max(1, identities._STATE_ENTRIES // x.size)
    sums = np.empty((len(slabs),) + x.shape, dtype=complex)
    for lo in range(0, len(slabs), per_pass):
        group = slabs[lo:lo + per_pass]
        step = {(k, j): _two_site_layout(
                    [factors[(k + a) % n, (j + a) % n] for factors, a in group],
                    k + 1, j + 1, n)
                for k in range(n) for j in range(n) if k != j}
        states = {(0, 0): np.array([
            [plane.transpose(*((i + a) % n for i in range(n)), n).reshape(x.shape)
             for plane in (tensor.real, tensor.imag)]
            for _, a in group])}
        for mask in range(0, full, 2):
            for j in [j for j in range(1, n) if mask >> j & 1] or [0]:
                state = states.pop((mask, j))
                for k in range(1, n):
                    if mask >> k & 1:
                        continue
                    key = (mask | 1 << k, k)
                    out = split_apply(step[k, j], state)
                    if key in states:
                        states[key] += out
                    else:
                        states[key] = out
        total = sum(split_apply(step[0, j], states.pop((full, j)))
                    for j in range(1, n))
        for b, (_, a) in enumerate(group):
            for out, plane in zip((sums.real, sums.imag), total[b]):
                out[lo + b] = (plane.reshape(tensor.shape)
                               .transpose(*((i - a) % n for i in range(n)), n)
                               .reshape(x.shape))
    return sums
