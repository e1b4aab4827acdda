"""Literal references for the contractions and the cyclic sums.

The package applies every two-site factor locally (``rmx.apply_two_site``)
and never forms an embedded N**n x N**n matrix.  The tests compare that
path against the dense embed-and-multiply construction kept here.  The
package also sums the scalar cyclic sum by a subset DP; the reference
``literal_cyclic_sum`` sums its (n-1)! orderings term by term.
"""

import numpy as np

from rmx import cyclic_orderings, kronecker_phi


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
