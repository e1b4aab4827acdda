"""Operators on tensor products of n copies of C^N.

Small utilities for applying two-site operators inside n-site products,
building the permutation operator, and testing whether an operator is a
scalar multiple of the identity.  The checks on n >= 3 sites never form an
N**n x N**n matrix: they apply their operator S to a fixed probe block X
(Freivalds' check) through the two-site kernel, and read SX; a three-site
relation compares the :func:`_product` blocks of its two sides.  The
kernel, :func:`_apply_layout`, moves the two legs a factor acts on to the
front of its operand (one copy), runs one batched matmul and copies the
product back to site order, for :func:`apply_two_site` and the
applications.  The subset DP of the cyclic sums (``identities._cyclic_apply``)
runs the same copy and matmul on a planned workspace, and keeps each state
in the leg order its product left it in.  The total dimension N**n is
bounded by the fixed :data:`SIZE_CAP`: every n-site entry checks it before
any work, and ``run_suites`` refuses a sweep that would pass it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, SizeCapExceeded

__all__ = [
    "SIZE_CAP",
    "permutation_operator",
    "apply_two_site",
    "is_scalar_operator",
    "frobenius_distance",
]

#: The largest total dimension N**n of any n-site operand.
SIZE_CAP = 4096

_PROBES = 4


def _check_cap(site_dim, n_sites):
    dim = site_dim ** n_sites
    if dim > SIZE_CAP:
        raise SizeCapExceeded(
            f"total dimension {site_dim}**{n_sites} = {dim} exceeds the "
            f"size cap {SIZE_CAP}"
        )
    return dim


def permutation_operator(site_dim):
    """Two-site operator P with P (u tensor v) = v tensor u."""
    n = site_dim
    return (
        np.eye(n * n, dtype=complex)
        .reshape(n, n, n, n)
        .transpose(0, 1, 3, 2)
        .reshape(n * n, n * n)
    )


def apply_two_site(op, site_a, site_b, n_sites, x):
    """Apply a two-site operator at sites (site_a, site_b) of an n-site product.

    Returns E @ x, where E is op embedded at the ordered pair of sites, an
    N**n x N**n matrix that is never formed: only the two tensor legs of x
    that op acts on are moved (one transpose, one N^2 x N^2 matmul, one
    transpose back), so the cost is N**n * N**2 multiply-adds per column
    of x instead of N**(2n).

    Parameters
    ----------
    op : ndarray, shape (N**2, N**2)
        Operator acting on the ordered pair of sites.
    site_a, site_b : int
        1-based site labels, distinct.
    n_sites : int
        N**n_sites must not exceed SIZE_CAP.
    x : ndarray, shape (N**n_sites, m)

    Returns
    -------
    ndarray of shape (N**n_sites, m), a new array
    """
    layout = _two_site_layout([op], site_a, site_b, n_sites)
    x, dim = np.asarray(x), layout[-1]
    if x.ndim != 2 or x.shape[0] != dim:
        raise DimensionMismatch(f"operand has shape {x.shape}, expected ({dim}, m)")
    return _apply_layout(layout, x)


def _two_site_layout(ops, site_a, site_b, n_sites):
    """Check a stack of B two-site factors for the same pair of sites and lay
    it out for :func:`_apply_layout`: their (B, N^2, N^2) matrices on the
    sites in increasing order, the operand, moved operand and product
    shapes, N**n."""
    if not (1 <= site_a <= n_sites and 1 <= site_b <= n_sites) or site_a == site_b:
        raise IndexOutOfRange(
            f"sites ({site_a}, {site_b}) must be distinct and lie in 1..{n_sites}"
        )
    ops = np.asarray(ops, dtype=complex)
    N = math.isqrt(ops.shape[-1]) if ops.ndim == 3 else 0
    if N == 0 or ops.shape[1:] != (N * N, N * N):
        raise DimensionMismatch(
            f"two-site operator has shape {ops.shape[1:]}, expected (N**2, N**2)"
        )
    dim = _check_cap(N, n_sites)
    a, b = site_a - 1, site_b - 1
    B = len(ops)
    ops = ops.reshape(B, N, N, N, N)
    if a > b:
        a, b, ops = b, a, ops.transpose(0, 2, 1, 4, 3)
    pre, mid = N ** a, N ** (b - a - 1)
    return (ops.reshape(B, N * N, N * N), (B, pre, N, mid, N, -1), (B, N * N, -1),
            (B, N, N, pre, mid, -1), dim)


#: The axes that bring the legs (B, pre, N, mid, N, post) of a layout to
#: (B, N, N, pre, mid, post), and back.
_FRONT = (0, 2, 4, 1, 3, 5)
_BACK = (0, 3, 1, 4, 2, 5)


def _apply_layout(layout, x):
    """E_b @ x_b for every slab b of x, unchecked, for a laid-out stack of B
    factors.  x is the (B, D, m) stack of operands, or one (D, m) operand
    when B = 1.  It is viewed as (B, pre, N, mid, N, post), its two legs are
    moved to the front (one copy, in which the other legs keep their order
    and their contiguous runs) for one batched (B, N^2, N^2) matmul, and the
    product is copied back to site order."""
    ops, legs, moved, back, _ = layout
    y = ops @ x.reshape(legs).transpose(_FRONT).reshape(moved)
    return y.reshape(back).transpose(_BACK).reshape(x.shape)


@lru_cache(maxsize=32)
def _probe_block(dim):
    """The fixed, read-only D x min(4, D) block of seeded Gaussian columns,
    scaled to the norm sqrt(D) of Id so that |S X| is on the scale of |S|."""
    x = np.random.default_rng(dim).standard_normal((dim, min(_PROBES, dim)))
    x *= math.sqrt(dim) / np.linalg.norm(x)
    x.setflags(write=False)
    return x


def _probe_scalar(x, y):
    """How far Y = S X is from c X: the coefficient c = <X, Y> / <X, X> (a
    Hutchinson trace estimate of tr(S) / D) and the non-scalar residual
    ||Y - c X|| / max(||Y||, 1), both on the scale of ||S||_F for the probe
    block X of :func:`_probe_block`."""
    coeff = complex(np.vdot(x, y) / np.vdot(x, x))
    return coeff, float(np.linalg.norm(y - coeff * x) / max(np.linalg.norm(y), 1.0))


def _product(n_sites, *factors):
    """S X for the product S of two-site factors ``(op, site_a, site_b)`` on
    n sites, in the order written: each is applied, right to left, to the
    probe block X."""
    N = math.isqrt(np.shape(factors[-1][0])[0])
    out = _probe_block(N ** n_sites)
    for op, site_a, site_b in reversed(factors):
        out = apply_two_site(op, site_a, site_b, n_sites, out)
    return out


def is_scalar_operator(matrix, tol=1e-10):
    """Test whether a square matrix is scalar, i.e. c * Id.

    Returns
    -------
    (is_scalar, coefficient, residual)
        coefficient is trace/dim; residual is the Frobenius norm of the
        non-scalar part divided by max(Frobenius norm, 1).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    coeff = np.trace(m) / dim
    resid = np.linalg.norm(m - coeff * np.eye(dim)) / max(np.linalg.norm(m), 1.0)
    return bool(resid < tol), complex(coeff), float(resid)


def frobenius_distance(a, b):
    """Relative Frobenius distance ||a - b|| / max(||a||, ||b||, 1)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(
        np.linalg.norm(a - b)
        / max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
    )
