"""Command line verification runner.

``rmx verify`` samples random evaluation data, sweeps the identity checks
across the requested suites and kinds, prints one line per case and can
write a machine-readable JSON report.  Exit code 0 means every executed
case passed, 1 that at least one failed, 2 that the request itself was
unusable (bad flags, config file problems, budget or size cap exceeded).
Each (suite, kind) part draws its cases together and runs every case type
as one call of its batch entry; ``errors._joint`` keeps an error to its
own case.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time
import zlib
from typing import Callable, NamedTuple

import numpy as np

from .applications import (
    CalogeroConfig,
    _hbar_order_batch,
    _kzb_batch,
    _trace_power_batch,
)
from .errors import BudgetExceeded, RmxError, UsageError, _as_count, _joint
from .identities import (
    _aybe_batch,
    _qybe_batch,
    _skew_symmetry_batch,
    _verdict,
    check_cyclic_batch,
    cyclic_sum_cost,
)
from .rmatrix import RMatrixSpec, _at_hbars, _classical_expansions, _hbar_derivatives
from .special_functions import (
    FunctionKind,
    MAX_WP_DERIV_ORDER,
    LatticeParams,
    _MAX_IM_TAU,
    _fay_checks,
    _scalar_cyclic_sums,
    _wp,
    weierstrass_p,
)
from .tensor_ops import _check_cap

__all__ = ["main", "run_suites"]

SCHEMA_VERSION = 1
SUITES = ("scalar", "rmatrix-basic", "nth-order", "applications")
KINDS = ("rational", "trigonometric", "elliptic")
DEFAULT_BUDGET = 1e10
APPLICATION_SAMPLE_CAP = 5
WP_MAGNITUDE_CAP = 1e8

_FAMILY_BY_KIND = {"rational": "yang", "elliptic": "belavin"}


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _point_candidate(rng, lat, count):
    """count points drawn from rng, followed by their pairwise differences,
    and the floor on the lattice distance of each of these.

    The separation floor bounds the R-matrix norms, which keeps roundoff
    in the long chain products commensurate with the check tolerances.
    """
    if lat.kind is FunctionKind.ELLIPTIC:
        separation = 0.12 if count <= 5 else 0.08
        pts = rng.uniform(0.1, 0.9, count) + rng.uniform(0.05, 0.45, count) * lat.tau
    elif lat.kind is FunctionKind.TRIGONOMETRIC:
        separation = 0.3
        pts = rng.uniform(0.2, 3.2, count) + 1j * np.pi * rng.uniform(0.05, 0.45, count)
    else:
        separation = 0.5 if count <= 5 else 0.3
        pts = rng.uniform(0.3, 3.9, count) + 1j * rng.uniform(0.1, 1.9, count)
    pts = [complex(p) for p in pts]
    diffs = [pts[i] - pts[j] for i in range(count) for j in range(i + 1, count)]
    return pts + diffs, [1e-2] * count + [separation] * len(diffs)


def _draw_rounds(rngs, tries, draw, screen, failure):
    """For each stream of rngs, the first candidate that ``screen`` keeps,
    or the RmxError it met, or RmxError(failure) after ``tries`` rounds.
    Each round draws draw(i, rngs[i]) for every stream i still pending, as
    a lone stream draws it, and one call screen(pending, candidates) gives
    each candidate its value, or None to draw again."""
    out = [None] * len(rngs)
    pending = list(range(len(rngs)))
    for _ in range(tries):
        if not pending:
            break
        candidates = [draw(i, rngs[i]) for i in pending]
        for i, value in zip(pending, screen(pending, candidates)):
            out[i] = value
        pending = [i for i in pending if out[i] is None]
    for i in pending:
        out[i] = RmxError(failure)
    return out


def _sample_points(rngs, lat, counts):
    """For each stream of rngs, its count of points kept clear of the pole
    lattice and well separated pairwise, or the RmxError its draws met.

    Rounds of _draw_rounds with 200 draws, each screened by one
    lattice_distance call.
    """
    def screen(pending, candidates):
        flat, floor = (sum(column, []) for column in zip(*candidates))
        clear = iter((lat.lattice_distance(np.array(flat)) > np.array(floor)).tolist())
        return [values[:counts[i]] if all([next(clear) for _ in values]) else None
                for i, (values, _) in zip(pending, candidates)]

    return _draw_rounds(rngs, 200, lambda i, rng: _point_candidate(rng, lat, counts[i]),
                        screen, "point sampling failed to avoid the lattice")


def _sample_hbar(rngs, lat, N, screens):
    """For each stream of rngs, a quantization parameter with N*hbar
    off-lattice and |wp^(d)(N*hbar)| <= WP_MAGNITUDE_CAP for d up to the
    stream's screen order, or the RmxError its draws met.

    Rounds of _draw_rounds with 100 draws: one lattice_distance call
    screens every candidate, and one _wp call, up to the round's highest
    order, the survivors.  If that call raises, errors._joint screens the
    survivors one by one, so an error reaches only the stream whose
    candidate met it.
    """
    def draw(i, rng):
        if lat.kind is FunctionKind.ELLIPTIC:
            re, im = rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)
            return (re + im * lat.tau) / N
        return rng.uniform(0.3, 1.2) + 1j * rng.uniform(0.1, 0.6)

    def wp_screen(live):
        # the hbar of each candidate (stream, hbar) of live, or None if it fails
        wp = np.abs(_wp(lat, np.array([N * h for _, h in live]),
                        range(max(screens[i] for i, _ in live) + 1)))
        return [complex(h) if (wp[: screens[i] + 1, k] <= WP_MAGNITUDE_CAP).all()
                else None for k, (i, h) in enumerate(live)]

    def screen(pending, hs):
        near = (lat.lattice_distance(np.array([v for h in hs for v in (h, N * h)]))
                < 1e-4).tolist()
        live = [(i, h) for k, (i, h) in enumerate(zip(pending, hs))
                if not (near[2 * k] or near[2 * k + 1])]
        kept = dict(zip([i for i, _ in live], _joint(wp_screen, live, lambda _: None)))
        return [kept.get(i) for i in pending]

    return _draw_rounds(rngs, 100, draw, screen,
                        "hbar sampling failed to find a moderate value")


def _c2d(value):
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _plain(value):
    """JSON form of a report detail: complex as {re, im}, numpy scalars as Python."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return _c2d(value)
    return value.item() if isinstance(value, np.generic) else value


def _record(case_id, suite, kind, family, n, N, residual, tolerance, passed,
            skipped=False, reason=None, params=None, details=None):
    return {
        "case_id": case_id,
        "suite": suite,
        "kind": kind,
        "family": family,
        "n": n,
        "N": N,
        "residual": None if residual is None else float(residual),
        "tolerance": None if tolerance is None else float(tolerance),
        "passed": None if passed is None else bool(passed),
        "skipped": skipped,
        "reason": reason,
        "params": params or {},
        "details": {key: _plain(value) for key, value in (details or {}).items()},
    }


# ---------------------------------------------------------------------------
# the case table
# ---------------------------------------------------------------------------

class _Draw(NamedTuple):
    """The sampled inputs of one case, as its run function receives them."""

    rng: np.random.Generator
    lat: LatticeParams
    spec: RMatrixSpec | None  # None in the scalar suite
    pts: list
    hbar: complex             # in the scalar suite, the first eta drawn
    n: int | None
    tol: float | None         # the override for the case's tolerance key


def _at_z(d, z):
    return {"z": _c2d(z), "hbar": _c2d(d.hbar)}


def _at_points(d):
    return {"points": [_c2d(p) for p in d.pts], "hbar": _c2d(d.hbar)}


def _scalar_cyclic_batch(requests):
    """The scalar-cyclic reports of requests (eta, lattice, points,
    tolerance), their sums from one ``_scalar_cyclic_sums`` call."""
    sums = _scalar_cyclic_sums([(len(pts), 1, eta, pts, lat)
                                for eta, lat, pts, _ in requests])
    reports = []
    for (eta, lat, pts, tol), total in zip(requests, sums):
        n = len(pts)
        expected = (weierstrass_p(eta, lat) - weierstrass_p(pts[0] - pts[1], lat) if n == 2
                    else (-1.0) ** n * weierstrass_p(eta, lat, deriv_order=n - 2))
        residual = abs(total - expected) / max(abs(expected), 1.0)
        reports.append(_verdict("scalar-cyclic", residual, tol, lat.kind, 1, n,
                                total=total, expected=expected))
    return reports


def _fay_batch(requests):
    """The fay reports of requests (hbar, eta, z, w, lattice, tolerance)."""
    residuals = _fay_checks([request[:5] for request in requests])
    return [_verdict("fay", residual, request[5], request[4].kind, 1, 3)
            for request, residual in zip(requests, residuals)]


def _fay(d, degenerate):
    def make(eta):
        z, w = d.pts
        return (_fay_batch, (d.hbar, eta, z, w, d.lat, d.tol)), {
            "hbar": _c2d(d.hbar), "eta": _c2d(eta), "z": _c2d(z), "w": _c2d(w),
            "degenerate": degenerate}
    # the generic case draws eta again while it lies within 1e-3 of hbar
    return make(d.hbar) if degenerate else (
        None, lambda eta: None if abs(eta - d.hbar) < 1e-3 else make(eta))


def _aybe(d):
    def make(eta):  # eta is drawn again while the spec refuses hbar - eta
        try:
            d.spec.validate_hbar(d.spec.hbar - eta)
        except RmxError:
            return None
        params = dict(_at_points(d), eta=_c2d(eta))
        return (_aybe_batch, (d.spec, d.pts, eta, d.tol)), params
    return None, make


def _classical_batch(requests):
    """The classical reports of requests (spec, z, tolerance)."""
    pairs = _classical_expansions([(spec, z, 32, None) for spec, z, _ in requests])
    return [_verdict("classical", max(p.hbar_inverse_residual, p.analytic_residual), tol,
                     spec.kind, spec.site_dim, 2,
                     hbar_inverse_residual=p.hbar_inverse_residual,
                     extraction_residual=p.extraction_residual,
                     analytic_residual=p.analytic_residual)
            for (spec, _, tol), p in zip(requests, pairs)]


def _deriv_hbar_batch(requests):
    """The deriv-hbar reports of requests (spec, z_a, z_b, tolerance), from
    one run of ``rmatrix._hbar_derivatives``."""
    outs = _hbar_derivatives([(spec, z_a, z_b, None) for spec, z_a, z_b, _ in requests])
    return [_verdict("deriv-hbar", out.structural_residual, request[3], request[0].kind,
                     request[0].site_dim, 3) for request, out in zip(requests, outs)]


def _deriv_hbar(d):
    return (_deriv_hbar_batch, (d.spec, d.pts[0], d.pts[1], d.tol)), {
        "z_a": _c2d(d.pts[0]), "z_b": _c2d(d.pts[1]), "hbar": _c2d(d.hbar)}


def _trace_power(d, power):
    momenta = d.rng.uniform(0.4, 1.6, 3) + 1j * d.rng.uniform(-0.3, 0.3, 3)
    coupling = complex(d.rng.uniform(0.5, 1.2))
    config = CalogeroConfig(rspec=d.spec, momenta=tuple(momenta),
                            positions=tuple(d.pts), coupling=coupling)
    return (_trace_power_batch, (config, power, d.tol)), {
        "power": power, "coupling": _c2d(coupling), "hbar": _c2d(d.hbar)}


class _Case(NamedTuple):
    """One case type: a row of ``_CASES``.

    A row whose name holds ``{n}`` stands for a ladder of case types, one
    per order from its ``n`` up to n_max; order n draws n points and screens
    hbar up to the wp derivative of order n - 2.
    """

    suite: str
    points: int | None  # points drawn; None on a {n} row
    screen: int | None  # wp derivative order the hbar draw screens
    n: int | None       # the member of the identity hierarchy tested
    tol: str            # the key of --tol.<name>
    run: Callable       # _Draw -> ((entry, request), params), or (None, make)
    samples: int | None = None  # cap on the samples drawn


# A run function returns a request to a batch entry as the pair (entry,
# request), and the case's params, or (None, make) to have _second_draws
# draw it an eta.  A part runs each entry once, on all of its requests: the
# entries are check_cyclic_batch, for same-site, unitarity, order-n and
# outer-n, and the *_batch cores of the other checks, which raise the first
# RmxError they meet.  The run functions name the entries and the checks by
# their module-global names, so that code rebinding ``cli.<name>`` (a tracer,
# a test double) sees every call.
_CASES = {
    "cyclic-n{n}": _Case("scalar", None, None, 2, "scalar-cyclic", lambda d: (
        (_scalar_cyclic_batch, (d.hbar, d.lat, d.pts, d.tol)),
        {"eta": _c2d(d.hbar), "points": [_c2d(p) for p in d.pts]})),
    "fay": _Case("scalar", 2, 0, None, "fay", lambda d: _fay(d, False)),
    "fay-degenerate": _Case("scalar", 2, 0, None, "fay", lambda d: _fay(d, True)),
    "unitarity": _Case("rmatrix-basic", 2, 0, 2, "unitarity", lambda d: (
        (check_cyclic_batch, (d.spec, 2, d.pts, 1, d.tol)), _at_z(d, d.pts[0] - d.pts[1]))),
    "skew-symmetry": _Case("rmatrix-basic", 2, 0, None, "skew-symmetry", lambda d: (
        (_skew_symmetry_batch, (d.spec, d.pts[0] - d.pts[1], d.tol)),
        _at_z(d, d.pts[0] - d.pts[1]))),
    "qybe": _Case("rmatrix-basic", 3, 0, None, "qybe", lambda d: (
        (_qybe_batch, (d.spec, d.pts, d.tol)), _at_points(d))),
    "aybe": _Case("rmatrix-basic", 3, 0, None, "aybe", _aybe),
    "same-site": _Case("rmatrix-basic", 1, 0, 1, "same-site", lambda d: (
        (check_cyclic_batch, (d.spec, 1, d.pts, 1, d.tol)), _at_z(d, d.pts[0]))),
    "classical": _Case("rmatrix-basic", 1, 0, None, "classical", lambda d: (
        (_classical_batch, (d.spec, d.pts[0], d.tol)), _at_z(d, d.pts[0]))),
    "deriv-hbar": _Case("rmatrix-basic", 2, 0, None, "deriv-hbar", _deriv_hbar),
    "order-{n}": _Case("nth-order", None, None, 3, "nth-order", lambda d: (
        (check_cyclic_batch, (d.spec, d.n, d.pts, 1, d.tol)), _at_points(d))),
    # drawn at s0 only, and left out of the skip records: order-{n} stands for it
    "outer-{n}": _Case("nth-order", None, None, 3, "outer-independence", lambda d: (
        (check_cyclic_batch, (d.spec, d.n, d.pts, None, d.tol)), _at_points(d)),
        samples=1),
    "trace-power-k2": _Case("applications", 3, 2, None, "trace-power",
                            lambda d: _trace_power(d, 2), APPLICATION_SAMPLE_CAP),
    "trace-power-k3": _Case("applications", 3, 2, None, "trace-power",
                            lambda d: _trace_power(d, 3), APPLICATION_SAMPLE_CAP),
    "kzb-flatness": _Case("applications", 3, 2, None, "kzb-flatness", lambda d: (
        (_kzb_batch, (d.spec, d.pts, 32, None, d.tol, False)), _at_points(d)),
        APPLICATION_SAMPLE_CAP),
    "hbar-order": _Case("applications", 3, 2, None, "hbar-order", lambda d: (
        (_hbar_order_batch, (d.spec, len(d.pts), d.pts, d.tol)), _at_points(d)),
        APPLICATION_SAMPLE_CAP),
}
_TOL_NAMES = tuple(dict.fromkeys(case.tol for case in _CASES.values()))


def _expand(name, case, n_max):
    """(case name, row) for each case type that a table row stands for."""
    if case.points is not None:
        return [(name, case)]
    return [(name.format(n=n), case._replace(points=n, screen=n - 2, n=n))
            for n in range(case.n, n_max + 1)]


def _sweep(opts):
    """The records of the requested sweep, its skip records among them.

    Each case draws from its own stream, seeded by the seed and its case id;
    the samplers screen the candidates of a part's cases together.
    """
    kinds = KINDS if opts["kind"] == "all" else (opts["kind"],)
    suites = SUITES if opts["suite"] == "all" else (opts["suite"],)
    records = []
    for suite in suites:
        for kind in kinds:
            rows = [row for name, case in _CASES.items() if case.suite == suite
                    for row in _expand(name, case, opts["n_max"])]
            family = None if suite == "scalar" else _FAMILY_BY_KIND.get(kind)
            N = 1 if suite == "scalar" else opts["site_dim"]
            if family is None and suite != "scalar":
                records += [_record(
                    f"{suite}/{kind}/{name}/s0", suite, kind, None, None, N,
                    None, None, None, skipped=True,
                    reason="no R-matrix family is attached to the "
                    "trigonometric kind",
                ) for name, case in rows if case.samples != 1]
                continue
            cases = [(f"{suite}/{kind}/{name}/s{s}", case)
                     for s in range(opts["samples"]) for name, case in rows
                     if case.samples is None or s < case.samples]
            lat = LatticeParams(kind=FunctionKind(kind), tau=opts["tau"])
            rngs = [np.random.default_rng([opts["seed"], zlib.crc32(cid.encode())])
                    for cid, _ in cases]
            pts = _sample_points(rngs, lat, [case.points for _, case in cases])
            # a fixed hbar serves the R-matrix suites; scalar cases draw eta
            hbars = [opts["hbar"]] * len(cases)
            if family is None or opts["hbar"] is None:
                todo = [i for i, p in enumerate(pts) if not isinstance(p, RmxError)]
                drawn = _sample_hbar([rngs[i] for i in todo], lat, N,
                                     [cases[i][1].screen for i in todo])
                for i, h in zip(todo, drawn):
                    hbars[i] = h
            specs = [None] * len(cases)
            live = [i for i, h in enumerate(hbars) if isinstance(h, complex)]
            if family is not None and live:
                # one spec, copied to the part's other hbars: one validate_hbar
                # call checks them all, not one RMatrixSpec check each
                try:
                    for i, spec in zip(live, _at_hbars(RMatrixSpec(
                            kind=family, site_dim=N, lattice=lat, hbar=hbars[live[0]]),
                            [hbars[i] for i in live])):
                        specs[i] = spec
                except RmxError as exc:
                    specs = [exc] * len(cases)
            tols = opts["tol_overrides"]
            outcomes = [_run_case(case.run, _Draw(rng, lat, spec, p, h, case.n,
                                                  tols.get(case.tol)))
                        for (_, case), rng, spec, p, h
                        in zip(cases, rngs, specs, pts, hbars)]
            _second_draws(outcomes, rngs, lat, N)
            # each batch entry runs once, on all of the part's requests to it,
            # or on each alone if it raises
            outs = _joint(lambda group: group[0][0]([request for _, request in group]),
                          [out for out, _ in outcomes], lambda out: out[0])
            records += [_case_record((cid, suite, kind, family, case.n, N), out, params)
                        for (cid, case), out, (_, params) in zip(cases, outs, outcomes)]
    return records


def _run_case(run, draw):
    """run(draw), or for an RmxError of the draw or of run the outcome
    (list, error), which the entry ``list`` returns as it is."""
    try:
        for value in (draw.pts, draw.hbar, draw.spec):
            if isinstance(value, RmxError):
                raise value
        return run(draw)
    except RmxError as exc:
        return (list, exc), None


def _second_draws(outcomes, rngs, lat, N):
    """Replace each outcome (None, make) by make(eta), eta drawn as the hbar
    was, in rounds of one _sample_hbar call; make returns None to redraw."""
    pending = [i for i, (out, _) in enumerate(outcomes) if out is None]
    while pending:
        etas = _sample_hbar([rngs[i] for i in pending], lat, N, [0] * len(pending))
        for i, eta in zip(pending, etas):
            outcomes[i] = (((list, eta), None) if isinstance(eta, RmxError)
                           else outcomes[i][1](eta) or outcomes[i])
        pending = [i for i in pending if outcomes[i][0] is None]


def _case_record(head, outcome, params):
    """The record of a case from its report, or from its RmxError, which
    fails the case."""
    if isinstance(outcome, RmxError):
        return _record(*head, None, None, False,
                       reason=f"{type(outcome).__name__}: {outcome}")
    return _record(*head, outcome.residual, outcome.tolerance, outcome.passed,
                   params=params, details=outcome.details)


def _typed(name, value, convert, what):
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be {what}, got {value!r}") from None


def _finite(name, value, convert, what):
    value = _typed(name, value, convert, what)
    if not np.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value}")
    return value


def _check_tol_name(name):
    if name not in _TOL_NAMES:
        raise UsageError(f"unknown tolerance name {name!r}, pick from "
                         f"{', '.join(_TOL_NAMES)}")
    return name


def run_suites(
    suite="all",
    kind="all",
    site_dim=2,
    n_max=4,
    tau=1j,
    hbar=None,
    seed=12345,
    samples=3,
    budget=DEFAULT_BUDGET,
    deterministic=True,
    tol_overrides=None,
):
    """Run the verification sweep and return the report dictionary.

    This is the programmatic face of ``rmx verify``; every keyword mirrors
    the corresponding flag.  Raises :class:`BudgetExceeded` when n_max and N
    imply too much work, :class:`UsageError` on other invalid options, among
    them an n_max above MAX_WP_DERIV_ORDER + 2 and, when the elliptic kind
    is requested, an Im(tau) above ``special_functions._MAX_IM_TAU``, and
    :class:`SizeCapExceeded`
    when a case would act on more than ``tensor_ops.SIZE_CAP`` dimensions.
    Both guards look at the requested suites only: the budget prices the
    n_max cyclic sums of outer-n_max in the nth-order suite, and the size
    cap bounds N**n_max there and N**3 in the R-matrix and application
    suites; the scalar suite runs at N = 1.  Each refusal comes before any
    case runs.
    """
    if suite != "all" and suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}, pick from {SUITES + ('all',)}")
    if kind != "all" and kind not in KINDS:
        raise UsageError(f"unknown kind {kind!r}, pick from {KINDS + ('all',)}")
    site_dim = _as_count("N", site_dim, 1)
    n_max = _as_count("n-max", n_max, 2)
    samples = _as_count("samples", samples, 1)
    seed = _as_count("seed", seed, 0)
    tau = _finite("tau", tau, complex, "a complex number")
    if tau.imag <= 0:
        raise UsageError(f"tau must have positive imaginary part, got {tau}")
    if tau.imag > _MAX_IM_TAU and kind in ("all", "elliptic"):
        raise UsageError(f"tau must have imaginary part at most {_MAX_IM_TAU:.0f} "
                         f"for the elliptic kind, where theta underflows, got {tau}")
    if hbar is not None:
        hbar = _finite("hbar", hbar, complex, "a complex number")
    tols = {_check_tol_name(name): _finite(f"tol.{name}", value, float, "a number")
            for name, value in dict(tol_overrides or {}).items()}
    for name, value in tols.items():
        if value <= 0:  # no residual is below it
            raise UsageError(f"tol.{name} must be positive, got {value}")
    budget = _typed("budget", budget, float, "a number")
    if np.isnan(budget):  # cost > nan is false: it would admit every sweep
        raise UsageError("budget must be a number, got nan")
    # the guards price the deepest case of the requested suites: only the
    # nth-order suite runs outer-n_max, n_max cyclic product sums on n_max
    # sites; the R-matrix and application suites act on 3 sites, and the
    # scalar suite runs at N = 1
    suites = SUITES if suite == "all" else (suite,)
    cost = n_max * cyclic_sum_cost(site_dim, n_max) if "nth-order" in suites else 0
    if cost > budget:
        raise BudgetExceeded(
            f"n_max={n_max}, N={site_dim} implies {cost:.3e} complex "
            f"multiply-adds above the budget {budget:.3e}; lower n-max or N, "
            "or raise --budget"
        )
    if n_max > MAX_WP_DERIV_ORDER + 2:
        raise UsageError(
            f"n-max={n_max} is above {MAX_WP_DERIV_ORDER + 2}: order n compares "
            f"with wp^(n-2), and wp derivatives stop at order {MAX_WP_DERIV_ORDER}"
        )
    sites = [n_max if name == "nth-order" else 3 for name in suites if name != "scalar"]
    if sites:
        _check_cap(site_dim, max(sites))
    if not deterministic:
        seed = int.from_bytes(os.urandom(8), "big")

    opts = {
        "suite": suite,
        "kind": kind,
        "site_dim": site_dim,
        "n_max": n_max,
        "tau": tau,
        "hbar": hbar,
        "seed": seed,
        "samples": samples,
        "budget": budget,
        "deterministic": bool(deterministic),
        "tol_overrides": tols,
    }

    start = time.monotonic()
    records = _sweep(opts)
    # basic-suite records sort by case id alone: their n is only a label
    records.sort(key=lambda r: (
        r["suite"], r["kind"],
        0 if r["suite"] == "rmatrix-basic" else r["n"] or 0, r["case_id"]))
    elapsed = time.monotonic() - start

    executed = [r for r in records if not r["skipped"]]
    failed = [r for r in executed if not r["passed"]]
    summary = {
        "total": len(records),
        "executed": len(executed),
        "passed": len(executed) - len(failed),
        "failed": len(failed),
        "skipped": len(records) - len(executed),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": dict(opts, tau=_c2d(tau),
                       hbar=None if hbar is None else _c2d(hbar)),
        "records": records,
        "summary": summary,
        "elapsed_seconds": elapsed,
    }


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

#: The imaginary unit i of a complex number, but not the i of inf or infinity.
_UNIT_I = re.compile(r"(inf(?:inity)?)|i", re.IGNORECASE)


def _parse_complex(text):
    try:
        return complex(_UNIT_I.sub(lambda m: m.group(1) or "j", str(text))
                       .replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _report_error(path):
    """Why a report could not be written to ``path``, or None if it could;
    the file is neither created nor truncated."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return None
    return OSError(code, os.strerror(code), path)


def _load_config(path, verify):
    """key = value file; '#' starts a comment.

    The keys are the long flags of the ``verify`` parser without dashes,
    ``tol.<name>`` among them.
    """
    keys = {}
    for action in verify._actions:
        if action.dest not in ("help", "config"):
            # a flag that takes no value is set by true / false
            conv = None if action.nargs == 0 else (action.type or str)
            keys[action.option_strings[0][2:]] = (action.dest, conv)
    defaults = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}, pick "
                             f"from {', '.join(keys)}")
        dest, conv = keys[key]
        if conv is None:
            low = value.lower()
            if low not in ("true", "false"):
                raise UsageError(f"{path}:{lineno}: {key} must be true or false")
            defaults[dest] = low == "true"
        else:
            try:
                defaults[dest] = conv(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"{path}:{lineno}: {exc}")
    return defaults


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rmx",
        description="Quantum R-matrix identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify",
        help="sample random data and sweep the identity checks",
        epilog="Per-check tolerance overrides use --tol.<name> <value> with "
        f"names {', '.join(_TOL_NAMES)}.",
    )
    verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    verify.add_argument("--kind", choices=KINDS + ("all",), default="all")
    verify.add_argument("--N", dest="site_dim", type=int, default=2,
                        help="rank of the fundamental representation")
    verify.add_argument("--n-max", dest="n_max", type=int, default=4,
                        help="deepest cyclic identity to verify, at most "
                        f"{MAX_WP_DERIV_ORDER + 2}")
    verify.add_argument("--tau", type=_parse_complex, default=1j,
                        help="modular parameter, e.g. 0.21+1.3i; Im(tau) > 0, "
                        f"and at most {_MAX_IM_TAU:.0f} for the elliptic kind")
    verify.add_argument("--hbar", type=_parse_complex, default=None,
                        help="fix the quantization parameter instead of sampling")
    verify.add_argument("--seed", type=int, default=12345)
    verify.add_argument("--samples", type=int, default=3,
                        help="random draws per case type")
    verify.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                        help="bound on the complex multiply-adds of the "
                        "outer-n_max case, n_max probed cyclic product sums")
    verify.add_argument("--deterministic", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="derive all sampling from --seed (default)")
    verify.add_argument("--report", default=None, metavar="PATH",
                        help="write the JSON report here")
    verify.add_argument("--config", default=None, metavar="PATH",
                        help="key = value option file; explicit flags win")
    for name in _TOL_NAMES:
        verify.add_argument(f"--tol.{name}", dest=f"tol.{name}", type=float,
                            help=argparse.SUPPRESS)
    return parser, verify


def main(argv=None):
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        for arg in argv:
            if arg.startswith("--tol."):
                _check_tol_name(arg.split("=", 1)[0][len("--tol."):])
        parser, verify_parser = _build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            verify_parser.set_defaults(**_load_config(args.config, verify_parser))
            args = parser.parse_args(argv)
        # the other dests, the tol.<name> ones aside, are run_suites keywords
        opts = {key: value for key, value in vars(args).items()
                if key not in ("command", "report", "config")}
        tols = {name: value for name in _TOL_NAMES
                if (value := opts.pop(f"tol.{name}")) is not None}
        # refuse a report path that cannot be written before the sweep runs
        if args.report is not None and (exc := _report_error(args.report)):
            raise UsageError(f"cannot write report {args.report}: {exc}")
        report = run_suites(tol_overrides=tols, **opts)
    except (UsageError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RmxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    for rec in report["records"]:
        if rec["skipped"]:
            print(f"[SKIP] {rec['case_id']:<46} {rec['reason']}")
        elif rec["passed"]:
            print(f"[PASS] {rec['case_id']:<46} residual={rec['residual']:.3e} "
                  f"tol={rec['tolerance']:.1e}")
        else:
            extra = rec["reason"] or (
                f"residual={rec['residual']:.3e} tol={rec['tolerance']:.1e}"
            )
            print(f"[FAIL] {rec['case_id']:<46} {extra}")
    s = report["summary"]
    print(f"{s['passed']}/{s['executed']} passed, {s['failed']} failed, "
          f"{s['skipped']} skipped in {report['elapsed_seconds']:.2f}s")

    if args.report is not None:
        try:
            with open(args.report, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write report {args.report}: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {args.report}")
    return 1 if s["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
