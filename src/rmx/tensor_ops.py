"""Operators on tensor products of n copies of C^N.

Small utilities for embedding two-site operators into n-site products,
building the permutation operator, and testing whether an operator is a
scalar multiple of the identity.  Everything is dense numpy; the total
dimension N**n is capped to keep accidental blowups out of test runs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, SizeCapExceeded

__all__ = [
    "DEFAULT_SIZE_CAP",
    "permutation_operator",
    "embed_two_site",
    "is_scalar_operator",
    "frobenius_distance",
]

DEFAULT_SIZE_CAP = 4096


def _check_cap(site_dim, n_sites, size_cap):
    dim = site_dim ** n_sites
    if dim > size_cap:
        raise SizeCapExceeded(
            f"total dimension {site_dim}**{n_sites} = {dim} exceeds the "
            f"size cap {size_cap}"
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


def embed_two_site(op, site_a, site_b, site_dim, n_sites, size_cap=DEFAULT_SIZE_CAP):
    """Embed a two-site operator at sites (site_a, site_b) of an n-site product.

    Parameters
    ----------
    op : ndarray, shape (site_dim**2, site_dim**2)
        Operator acting on the ordered pair of sites.
    site_a, site_b : int
        1-based site labels, distinct.
    site_dim, n_sites : int
    size_cap : int
        Upper bound on the embedded dimension.

    Returns
    -------
    ndarray of shape (site_dim**n_sites,) * 2
    """
    if not 1 <= site_a <= n_sites or not 1 <= site_b <= n_sites:
        raise IndexOutOfRange(
            f"sites ({site_a}, {site_b}) must lie in 1..{n_sites}"
        )
    if site_a == site_b:
        raise IndexOutOfRange(f"sites must be distinct, got ({site_a}, {site_b})")
    dim = _check_cap(site_dim, n_sites, size_cap)
    op = np.asarray(op, dtype=complex)
    if op.shape != (site_dim ** 2, site_dim ** 2):
        raise DimensionMismatch(
            f"two-site operator has shape {op.shape}, expected "
            f"{(site_dim ** 2, site_dim ** 2)}"
        )
    if n_sites == 2 and (site_a, site_b) == (1, 2):
        return op.copy()

    n = site_dim
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
