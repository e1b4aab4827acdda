"""Dense embed-and-multiply reference for the two-site contractions.

The package applies every two-site factor locally (``rmx.apply_two_site``)
and never forms an embedded N**n x N**n matrix.  The tests compare that
path against the literal construction kept here.
"""

import numpy as np


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
