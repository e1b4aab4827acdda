"""Operators on tensor products of n copies of C^N.

Small utilities for applying two-site operators inside n-site products,
building the permutation operator, and testing whether an operator is a
scalar multiple of the identity.  The checks on n >= 3 sites never form an
N**n x N**n matrix: they apply their operator S to a fixed probe block X
(Freivalds' check) and read SX.

Every such product runs on one contraction code.  A check is a graph of
states in which each edge applies one two-site factor to a state and writes
or adds the product into another: :func:`_plan` gives the ordered edges
slots, and :func:`_run` executes them for a stack of slabs in lockstep, on
one scratch workspace per process, in real arithmetic on the real and
imaginary planes of each state.  A product stores leg 0 last among the legs
it leaves alone, so the copies and adds of the cyclic sums, which keep their
outer site on leg 0, move runs of N m floats, not m.  The cyclic sums, the
three-site relations, the hbar derivative and the applications are each
one plan.  The total dimension N**n is bounded by the fixed
:data:`SIZE_CAP`: every n-site entry checks it before any work, and
``run_suites`` refuses a sweep that would pass it.

Every probed product is a job (plan, slabs) of :func:`_probe_jobs`: a slab
(table, a) holds the factors keyed as in the plan and puts site (i + a) % n
on leg i, so the key (k, j) takes table[(k + a) % n, (j + a) % n].  The jobs
of one plan and N run as one :func:`_run`, each output read in site order.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, SizeCapExceeded, _alone, _as_count, _grouped

__all__ = [
    "SIZE_CAP",
    "permutation_operator",
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
    n = _as_count("site_dim", site_dim, 1)
    return (
        np.eye(n * n, dtype=complex)
        .reshape(n, n, n, n)
        .transpose(0, 1, 3, 2)
        .reshape(n * n, n * n)
    )


#: The most complex entries in one state, all slabs together.  The slabs
#: of a plan, such as every sum of the order-n and outer-n cases of a part,
#: run in passes of as many as fit, so that a state stays in cache and the
#: live states stay small: unbounded, the outer check ran about 20% slower
#: at N = 4, n = 6 and peaked at 12 MB instead of 3.2 MB at N = 2, n = 8.
#: A pass needs slots + 2 states of two floats per entry: for the cyclic
#: sums at N = 2, 46 x 2048 entries (1.5 MB) at n = 7, 89 x 2048 at n = 8.
_STATE_ENTRIES = 2048

#: The most bytes, 16 (slots + 2) B D m, of a pass on the process's workspace; a
#: larger pass runs on one of its own.  The largest pass of ``rmx verify`` is
#: outer-7 at N = 3 (6.4 MB); one sum at N = 2, n = 10 takes 22.7 MB.
_WORKSPACE_BYTES = 8 << 20


class _Step(NamedTuple):
    """One edge of a plan: the state in slot ``src``, transposed by
    ``front`` (its plane leg, the legs of factor ``factor`` in site order,
    then its other legs, leg 0 last), times that factor, is the state in
    slot ``dst`` when ``add`` is None, or is added to it through ``add``.
    ``last`` marks the source's last read, after which its slot is free."""

    src: int
    dst: int
    factor: int
    front: tuple
    add: tuple | None
    last: bool


@dataclass(frozen=True, eq=False)
class _Plan:
    """The steps of a plan on n legs, the factor ``keys`` they index, the
    factors ``swap`` whose legs are in decreasing order, the number of state
    ``slots`` and each output's (slot, leg order).  A plan hashes by
    identity: the workspace keys its views on it."""

    n: int
    steps: tuple
    keys: tuple
    swap: tuple
    slots: int
    outs: tuple


def _plan(n, edges, outs):
    """The plan of the ordered ``edges`` (source state, target state, the
    legs (k, j) of the factor, factor key) on n legs, with the output states
    ``outs``.  States and keys are hashable labels, and a key acts on one
    pair of legs.  The first edge's source is the input, in slot 0 in site
    order.  The first edge into a state writes it, and later ones add to it.
    A state stores its legs in the order of the product that wrote it: the
    plane leg (real, imaginary), the factor's two legs in site order, then
    the source's other legs in its order, leg 0 last: leg 0 then stays
    beside the columns in every state reached without acting on it, and the
    copies and adds between such states move runs of N m floats, not m.  A
    state takes a free slot when first written, the most recently freed
    first, and frees it at its last read."""
    last = {src: i for i, (src, *_) in enumerate(edges)}
    start = edges[0][0]
    slot, order, keys, legs, steps = {start: 0}, {start: tuple(range(n))}, {}, {}, []
    free, slots = [], 1
    # cached plans keep their steps: share each distinct tuple between them
    shared = {}.setdefault
    for i, (src, dst, pair, key) in enumerate(edges):
        stored, src_slot = order[src], slot[src]
        if last[src] == i:
            # a step copies its source out before it writes its product, so
            # the product may take the source's slot
            free.append(src_slot)
            del order[src], slot[src]
        rest = [x for x in stored if x not in pair]
        product = (*sorted(pair), *sorted(rest, key=lambda x: x == 0))
        front = (0, 1, *(2 + stored.index(leg) for leg in product), n + 2)
        if dst in slot:
            add = (0, 1, *(2 + product.index(leg) for leg in order[dst]), n + 2)
            add = shared(add, add)
        else:
            if not free:
                free.append(slots)
                slots += 1
            slot[dst], order[dst], add = free.pop(), product, None
        factor = keys.setdefault(key, len(keys))
        legs.setdefault(factor, pair)
        steps.append(_Step(src_slot, slot[dst], factor, shared(front, front), add,
                           last[src] == i))
    swap = tuple(f for f, (k, j) in legs.items() if k > j)
    return _Plan(n, tuple(steps), tuple(keys), swap, slots,
                 tuple((slot[s], order[s]) for s in outs))


def _plan_sides(n, sides):
    """The plan of S X for each side S of ``sides`` on n sites.  A side is a
    list of terms, a term a product of factors (tag, site_a, site_b) keyed
    by themselves, on the 1-based sites, applied right to left to the input
    X by a chain of edges into the side's output state.  Terms that end in
    the same factors share that tail's state; a sign is a factor's tag."""
    edges, made = [], set()
    for i, side in enumerate(sides):
        for term in side:
            src = "x"
            for f in reversed(range(len(term))):
                dst = tuple(term[f:]) if f else i
                if not f or dst not in made:
                    made.add(dst)
                    edges.append((src, dst, (term[f][1] - 1, term[f][2] - 1), term[f]))
                src = dst
    return _plan(n, edges, range(len(sides)))


class _Workspace:
    """The scratch buffer of the plans in this process, created on first use
    and grown to the largest pass run so far, with the views of each pass
    shape (plan, N, m, B) built on it once: B slabs of D x m complex entries,
    as a real and an imaginary plane, for each slot, the moved operand and
    the product of an add step.  Growing drops the old views.  A pass holds
    ``lock`` while it uses the views, so that threads take turns."""

    def __init__(self):
        self.buffer = np.empty(0)
        self.views = {}
        self.lock = threading.Lock()

    def for_pass(self, plan, N, m, B):
        """The views of a pass: the input state, the moved operand as a state
        and as a (B, 2 N^2, D m / N^2) stack, each step's (source, factor,
        product, target, added product) and each (output, leg order)."""
        key = (plan, N, m, B)
        views = self.views.get(key)
        if views is not None:
            return views
        if len(self.views) >= 64:  # bounds the views that one-off plans leave
            self.views.clear()
        shape = (B, 2) + (N,) * plan.n + (m,)
        size, mat = math.prod(shape), (B, 2 * N * N, -1)
        if self.buffer.size < (plan.slots + 2) * size:
            self.buffer = np.empty((plan.slots + 2) * size)
            self.views.clear()
        states = [self.buffer[i * size:(i + 1) * size].reshape(shape)
                  for i in range(plan.slots + 2)]
        mats = [state.reshape(mat) for state in states]
        # the last two slots are the moved operand and an add step's product;
        # the steps share each view of a slot, source transpose and add transpose
        fronts, adds, steps = {}, {}, []
        for s in plan.steps:
            src = fronts.setdefault((s.src, s.front), states[s.src].transpose(s.front))
            if s.add is None:
                steps.append((src, s.factor, mats[s.dst], None, None))
            else:
                add = adds.setdefault(s.add, states[-1].transpose(s.add))
                steps.append((src, s.factor, mats[-1], states[s.dst], add))
        views = self.views[key] = (states[0], states[-2], mats[-2], tuple(steps),
                                   tuple((states[s], order) for s, order in plan.outs))
        return views


_workspace = _Workspace()


def _gather(slabs, plan):
    """The factors of a pass as one (P, B, 2 N^2, 2 N^2) real stack: for
    each key of ``plan`` and slab (factors, a), its factor on its legs in
    increasing order, split into [[Re A, -Im A], [Im A, Re A]], which acts
    on the real and imaginary planes of a state stacked in that order."""
    ops = np.array([factors for factors, _ in slabs], dtype=complex).swapaxes(0, 1)
    P, B, M = ops.shape[:3]
    N = math.isqrt(M)
    if plan.swap:
        swap = list(plan.swap)
        ops[swap] = (ops[swap].reshape(-1, B, N, N, N, N).transpose(0, 1, 3, 2, 5, 4)
                     .reshape(-1, B, M, M))
    split = np.empty((P, B, 2, M, 2, M))
    split[:, :, 0, :, 0] = split[:, :, 1, :, 1] = ops.real
    split[:, :, 1, :, 0] = ops.imag
    np.negative(ops.imag, out=split[:, :, 0, :, 1])
    return split.reshape(P, B, 2 * M, 2 * M)


def _run(plan, slabs, x):
    """The output states of ``plan`` for each slab (factors, a) of
    ``slabs``, as an (outputs, slabs) + x.shape complex array.  A slab's
    factors are N^2 x N^2 matrices of one N, one per key of the plan, in
    that order.  Slab a has site (i + a) % n on leg i: its input is x
    relabelled so, and its outputs are read back to site order.
    The slabs run in lockstep, in passes of at most _STATE_ENTRIES, on the
    views of the process's workspace, or of one of their own if a pass
    needs more than _WORKSPACE_BYTES.  Each step is one copy of its source
    state into the moved operand and one batched (B, 2 N^2, 2 N^2) real
    matmul of the factors of :func:`_gather`, written into the target's
    slot or added to it through a transposed view."""
    n = plan.n
    tensor = x.reshape((math.isqrt(len(slabs[0][0][0])),) * n + (-1,))
    per_pass = max(1, _STATE_ENTRIES // max(1, x.size))
    space = _workspace if (16 * (plan.slots + 2) * min(per_pass, len(slabs)) * x.size
                           <= _WORKSPACE_BYTES) else _Workspace()
    outs = np.empty((len(plan.outs), len(slabs)) + tensor.shape, dtype=complex)
    in_planes, out_planes = (tensor.real, tensor.imag), (outs.real, outs.imag)
    for lo in range(0, len(slabs), per_pass):
        group = slabs[lo:lo + per_pass]
        ops = list(_gather(group, plan))
        # each run [b, e) of consecutive slabs of one a is copied in and out
        # at once
        runs = []
        for a, run in itertools.groupby(a for _, a in group):
            b = runs[-1][2] if runs else 0
            runs.append((a, b, b + len(list(run))))
        with space.lock:
            first, moved, moved_mat, steps, totals = space.for_pass(
                plan, tensor.shape[0], tensor.shape[-1], len(group))
            for a, b, e in runs:
                for c, plane in enumerate(in_planes):
                    np.copyto(first[b:e, c],
                              plane.transpose(*((i + a) % n for i in range(n)), n))
            for src, factor, out, state, product in steps:
                np.copyto(moved, src)
                np.matmul(ops[factor], moved_mat, out=out)
                if state is not None:
                    np.add(state, product, out=state)
            for o, (total, order) in enumerate(totals):
                for a, b, e in runs:
                    back = (0, *(1 + order.index((i - a) % n) for i in range(n)), n + 1)
                    for c, plane in enumerate(out_planes):
                        np.copyto(plane[o, lo + b:lo + e], total[b:e, c].transpose(back))
    return outs.reshape(outs.shape[:2] + x.shape)


@lru_cache(maxsize=32)
def _probe_block(dim):
    """The fixed, read-only D x min(4, D) block of seeded Gaussian columns,
    scaled to the norm sqrt(D) of Id so that |S X| is on the scale of |S|."""
    x = np.random.default_rng(dim).standard_normal((dim, min(_PROBES, dim)))
    x *= math.sqrt(dim) / np.linalg.norm(x)
    x.setflags(write=False)
    return x


def _probe(plan, table):
    """The output states of ``plan`` on the probe block, for one slab of the
    factors ``table`` keyed as in the plan."""
    return _alone(_probe_jobs, (plan, [(table, 0)]))[:, 0]


def _slab(plan, table, a):
    """The :func:`_run` slab of the slab (table, a) of a job of ``plan``."""
    return [table[(key[0] + a) % plan.n, (key[1] + a) % plan.n] if a else table[key]
            for key in plan.keys], a


def _probe_jobs(jobs):
    """The outputs of each job (plan, slabs) on the probe block, an
    (outputs, slabs, D, m) array.  The jobs of one plan and N run as the
    slabs of one :func:`_run`."""
    def run(group):
        plan = group[0][0]
        slabs = [_slab(plan, *slab) for _, slabs in group for slab in slabs]
        outs = _run(plan, slabs, _probe_block(math.isqrt(len(slabs[0][0][0])) ** plan.n))
        return np.split(outs, np.cumsum([len(slabs) for _, slabs in group[:-1]]), axis=1)
    return _grouped(run, jobs, lambda job: (job[0], len(next(iter(job[1][0][0].values())))))


def _probe_scalar(x, y):
    """How far Y = S X is from c X: the coefficient c = <X, Y> / <X, X> (a
    Hutchinson trace estimate of tr(S) / D) and the non-scalar residual
    ||Y - c X|| / max(||Y||, 1), both on the scale of ||S||_F for the probe
    block X of :func:`_probe_block`."""
    coeff = complex(np.vdot(x, y) / np.vdot(x, x))
    return coeff, float(np.linalg.norm(y - coeff * x) / max(np.linalg.norm(y), 1.0))


def is_scalar_operator(matrix, tol=1e-10):
    """Test whether a square matrix is scalar, i.e. c * Id.

    Returns
    -------
    (is_scalar, coefficient, residual)
        coefficient is trace/dim; residual is the Frobenius norm of the
        non-scalar part divided by max(Frobenius norm, 1).  An empty or
        non-square matrix raises DimensionMismatch.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
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
