"""Command line verification runner.

``rmx verify`` samples random evaluation data, sweeps the identity checks
across the requested suites and kinds, prints one line per case and can
write a machine-readable JSON report.  Exit code 0 means every executed
case passed, 1 that at least one failed, 2 that the request itself was
unusable (bad flags, config file problems, budget exceeded).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import time
import zlib
from typing import Callable, NamedTuple

import numpy as np

from .applications import (
    CalogeroConfig,
    check_hbar_order_relation,
    check_kzb_flatness,
    check_trace_power_guess,
)
from .errors import BudgetExceeded, RmxError, UsageError
from .identities import (
    IdentityReport,
    check_aybe,
    check_nth_order,
    check_outer_index_independence,
    check_qybe,
    check_skew_symmetry,
    check_unitarity,
    cyclic_sum_cost,
    default_tolerance,
)
from .rmatrix import RMatrixSpec, classical_expansion, r_deriv_hbar
from .special_functions import (
    FunctionKind,
    MAX_WP_DERIV_ORDER,
    LatticeParams,
    _wp,
    fay_check,
    scalar_cyclic_sum,
    weierstrass_p,
)
from .tensor_ops import DEFAULT_SIZE_CAP

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

def _sample_points(rng, lat, count):
    """Points kept clear of the pole lattice and well separated pairwise.

    The separation floor bounds the R-matrix norms, which keeps roundoff
    in the long chain products commensurate with the check tolerances.
    """
    if lat.kind is FunctionKind.ELLIPTIC:
        separation = 0.12 if count <= 5 else 0.08
    elif lat.kind is FunctionKind.TRIGONOMETRIC:
        separation = 0.3
    else:
        separation = 0.5 if count <= 5 else 0.3
    for _ in range(200):
        if lat.kind is FunctionKind.ELLIPTIC:
            pts = rng.uniform(0.1, 0.9, count) + rng.uniform(0.05, 0.45, count) * lat.tau
        elif lat.kind is FunctionKind.TRIGONOMETRIC:
            pts = rng.uniform(0.2, 3.2, count) + 1j * np.pi * rng.uniform(
                0.05, 0.45, count
            )
        else:
            pts = rng.uniform(0.3, 3.9, count) + 1j * rng.uniform(0.1, 1.9, count)
        pts = [complex(p) for p in pts]
        diffs = [pts[i] - pts[j] for i in range(count) for j in range(i + 1, count)]
        d = lat.lattice_distance(np.array(pts + diffs))
        if np.all(d[:count] > 1e-2) and np.all(d[count:] > separation):
            return pts
    raise RmxError("point sampling failed to avoid the lattice")


def _sample_hbar(rng, lat, N, max_order=0):
    """Quantization parameter with N*hbar off-lattice and moderate wp values."""
    for _ in range(100):
        if lat.kind is FunctionKind.ELLIPTIC:
            h = (rng.uniform(0.05, 0.45) + rng.uniform(0.05, 0.45) * lat.tau) / N
        else:
            h = rng.uniform(0.3, 1.2) + 1j * rng.uniform(0.1, 0.6)
        if np.any(lat.lattice_distance(np.array([h, N * h])) < 1e-4):
            continue
        orders = range(min(max_order, MAX_WP_DERIV_ORDER) + 1)
        if np.all(np.abs(_wp(lat, np.asarray(N * h), orders)) <= WP_MAGNITUDE_CAP):
            return complex(h)
    raise RmxError("hbar sampling failed to find a moderate value")


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
    size_cap: int


def _report(name, residual, tol, default, **details):
    """IdentityReport for a check that returns a bare residual."""
    tol = default if tol is None else tol
    return IdentityReport(name, residual < tol, residual, tol, details)


def _at_z(d, z):
    return {"z": _c2d(z), "hbar": _c2d(d.hbar)}


def _at_points(d):
    return {"points": [_c2d(p) for p in d.pts], "hbar": _c2d(d.hbar)}


def _scalar_cyclic(d):
    eta, lat, n = d.hbar, d.lat, d.n
    total = scalar_cyclic_sum(n, 1, eta, d.pts, lat)
    if n == 2:
        expected = weierstrass_p(eta, lat) - weierstrass_p(d.pts[0] - d.pts[1], lat)
    else:
        expected = (-1.0) ** n * weierstrass_p(eta, lat, deriv_order=n - 2)
    residual = abs(total - expected) / max(abs(expected), 1.0)
    report = _report("scalar-cyclic", residual, d.tol,
                     default_tolerance(lat.kind, 1, n), total=total, expected=expected)
    return report, {"eta": _c2d(eta), "points": [_c2d(p) for p in d.pts]}


def _fay(d, degenerate):
    eta = d.hbar
    if not degenerate:
        eta = _sample_hbar(d.rng, d.lat, 1)
        while abs(eta - d.hbar) < 1e-3:
            eta = _sample_hbar(d.rng, d.lat, 1)
    z, w = d.pts
    residual = fay_check(d.hbar, eta, z, w, d.lat)
    report = _report("fay", residual, d.tol, default_tolerance(d.lat.kind, 1, 3))
    return report, {"hbar": _c2d(d.hbar), "eta": _c2d(eta), "z": _c2d(z),
                    "w": _c2d(w), "degenerate": degenerate}


def _aybe(d):
    spec = d.spec
    eta = _sample_hbar(d.rng, d.lat, spec.site_dim)
    for _ in range(100):
        try:
            spec.validate_hbar(spec.hbar - eta)
            break
        except RmxError:
            eta = _sample_hbar(d.rng, d.lat, spec.site_dim)
    report = check_aybe(spec, d.pts, eta, tolerance=d.tol)
    return report, dict(_at_points(d), eta=_c2d(eta))


def _classical(d):
    pair = classical_expansion(d.spec, d.pts[0])
    residual = max(pair.hbar_inverse_residual, pair.analytic_residual)
    report = _report("classical", residual, d.tol,
                     default_tolerance(d.spec.kind, d.spec.site_dim, 2),
                     hbar_inverse_residual=pair.hbar_inverse_residual,
                     extraction_residual=pair.extraction_residual,
                     analytic_residual=pair.analytic_residual)
    return report, _at_z(d, d.pts[0])


def _deriv_hbar(d):
    residual = r_deriv_hbar(d.spec, d.pts[0], d.pts[1]).structural_residual
    report = _report("deriv-hbar", residual, d.tol,
                     default_tolerance(d.spec.kind, d.spec.site_dim, 3))
    return report, {"z_a": _c2d(d.pts[0]), "z_b": _c2d(d.pts[1]),
                    "hbar": _c2d(d.hbar)}


def _trace_power(d, power):
    momenta = d.rng.uniform(0.4, 1.6, 3) + 1j * d.rng.uniform(-0.3, 0.3, 3)
    coupling = complex(d.rng.uniform(0.5, 1.2))
    config = CalogeroConfig(rspec=d.spec, momenta=tuple(momenta),
                            positions=tuple(d.pts), coupling=coupling)
    report = check_trace_power_guess(config, power, size_cap=d.size_cap,
                                     tolerance=d.tol)
    return report, {"power": power, "coupling": _c2d(coupling),
                    "hbar": _c2d(d.hbar)}


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
    run: Callable       # _Draw -> (IdentityReport, params)
    samples: int | None = None  # cap on the samples drawn


# The run functions call the checks by their module-global names, so that
# code rebinding ``cli.check_*`` (a tracer, a test double) sees every call.
_CASES = {
    "cyclic-n{n}": _Case("scalar", None, None, 2, "scalar-cyclic", _scalar_cyclic),
    "fay": _Case("scalar", 2, 0, None, "fay", lambda d: _fay(d, False)),
    "fay-degenerate": _Case("scalar", 2, 0, None, "fay", lambda d: _fay(d, True)),
    "unitarity": _Case("rmatrix-basic", 2, 0, 2, "unitarity", lambda d: (
        check_unitarity(d.spec, d.pts[0] - d.pts[1], tolerance=d.tol),
        _at_z(d, d.pts[0] - d.pts[1]))),
    "skew-symmetry": _Case("rmatrix-basic", 2, 0, None, "skew-symmetry", lambda d: (
        check_skew_symmetry(d.spec, d.pts[0] - d.pts[1], tolerance=d.tol),
        _at_z(d, d.pts[0] - d.pts[1]))),
    "qybe": _Case("rmatrix-basic", 3, 0, None, "qybe", lambda d: (
        check_qybe(d.spec, d.pts, tolerance=d.tol), _at_points(d))),
    "aybe": _Case("rmatrix-basic", 3, 0, None, "aybe", _aybe),
    "same-site": _Case("rmatrix-basic", 1, 0, 1, "same-site", lambda d: (
        check_nth_order(d.spec, 1, d.pts, tolerance=d.tol), _at_z(d, d.pts[0]))),
    "classical": _Case("rmatrix-basic", 1, 0, None, "classical", _classical),
    "deriv-hbar": _Case("rmatrix-basic", 2, 0, None, "deriv-hbar", _deriv_hbar),
    "order-{n}": _Case("nth-order", None, None, 3, "nth-order", lambda d: (
        check_nth_order(d.spec, d.n, d.pts, size_cap=d.size_cap,
                        tolerance=d.tol), _at_points(d))),
    # drawn at s0 only, and left out of the skip records: order-{n} stands for it
    "outer-{n}": _Case("nth-order", None, None, 3, "outer-independence", lambda d: (
        check_outer_index_independence(d.spec, d.n, d.pts, size_cap=d.size_cap,
                                       tolerance=d.tol), _at_points(d)), samples=1),
    "trace-power-k2": _Case("applications", 3, 2, None, "trace-power",
                            lambda d: _trace_power(d, 2), APPLICATION_SAMPLE_CAP),
    "trace-power-k3": _Case("applications", 3, 2, None, "trace-power",
                            lambda d: _trace_power(d, 3), APPLICATION_SAMPLE_CAP),
    "kzb-flatness": _Case("applications", 3, 2, None, "kzb-flatness", lambda d: (
        check_kzb_flatness(d.spec, d.pts, tolerance=d.tol), _at_points(d)),
        APPLICATION_SAMPLE_CAP),
    "hbar-order": _Case("applications", 3, 2, None, "hbar-order", lambda d: (
        check_hbar_order_relation(d.spec, len(d.pts), d.pts, size_cap=d.size_cap,
                                  tolerance=d.tol), _at_points(d)),
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
    """The records of the requested sweep, its skip records among them."""
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
            for s in range(opts["samples"]):
                records += [_run_case((f"{suite}/{kind}/{name}/s{s}", suite, kind,
                                       family, case.n, N), case, opts)
                            for name, case in rows
                            if case.samples is None or s < case.samples]
    return records


def _run_case(head, case, opts):
    """The record of one case, given its record head (case_id, suite, kind,
    family, n, N) and its table row; an RmxError fails the case."""
    case_id, _, kind, family, _, N = head
    try:
        lat = LatticeParams(kind=FunctionKind(kind), tau=opts["tau"])
        rng = np.random.default_rng([opts["seed"], zlib.crc32(case_id.encode())])
        pts = _sample_points(rng, lat, case.points)
        # a fixed hbar serves the R-matrix suites; scalar cases draw eta
        hbar = opts["hbar"]
        if family is None or hbar is None:
            hbar = _sample_hbar(rng, lat, N, case.screen)
        spec = None if family is None else RMatrixSpec(
            kind=family, site_dim=N, lattice=lat, hbar=hbar)
        report, params = case.run(_Draw(
            rng, lat, spec, pts, hbar, case.n,
            opts["tol_overrides"].get(case.tol), opts["size_cap"]))
    except RmxError as exc:
        return _record(*head, None, None, False,
                       reason=f"{type(exc).__name__}: {exc}")
    return _record(*head, report.residual, report.tolerance, report.passed,
                   params=params, details=report.details)


def _typed(name, value, convert, what):
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be {what}, got {value!r}") from None


def _check_tol_name(name):
    if name not in _TOL_NAMES:
        raise UsageError(f"unknown tolerance name {name!r}, pick from "
                         f"{', '.join(_TOL_NAMES)}")
    return name


def _count(name, value, low):
    value = _typed(name, value, operator.index, "an integer")
    if value < low:
        raise UsageError(f"{name} must be >= {low}, got {value}")
    return value


def run_suites(
    suite="all",
    kind="all",
    site_dim=2,
    n_max=4,
    tau=1j,
    hbar=None,
    seed=12345,
    samples=3,
    size_cap=DEFAULT_SIZE_CAP,
    budget=DEFAULT_BUDGET,
    deterministic=True,
    tol_overrides=None,
):
    """Run the verification sweep and return the report dictionary.

    This is the programmatic face of ``rmx verify``; every keyword mirrors
    the corresponding flag.  Raises :class:`UsageError` on invalid options
    and :class:`BudgetExceeded` when n_max and N imply too much work.
    """
    if suite != "all" and suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}, pick from {SUITES + ('all',)}")
    if kind != "all" and kind not in KINDS:
        raise UsageError(f"unknown kind {kind!r}, pick from {KINDS + ('all',)}")
    site_dim = _count("N", site_dim, 1)
    n_max = _count("n-max", n_max, 2)
    samples = _count("samples", samples, 1)
    size_cap = _count("size-cap", size_cap, 1)
    seed = _count("seed", seed, 0)
    tau = _typed("tau", tau, complex, "a complex number")
    if tau.imag <= 0:
        raise UsageError(f"tau must have positive imaginary part, got {tau}")
    if hbar is not None:
        hbar = _typed("hbar", hbar, complex, "a complex number")
    tols = {_check_tol_name(name): _typed(f"tol.{name}", value, float, "a number")
            for name, value in dict(tol_overrides or {}).items()}
    # the deepest case, outer-n_max, runs n_max cyclic product sums
    cost = n_max * cyclic_sum_cost(site_dim, n_max)
    if cost > budget:
        raise BudgetExceeded(
            f"n_max={n_max}, N={site_dim} implies {cost:.3e} complex "
            f"multiply-adds above the budget {budget:.3e}; lower n-max or N, "
            "or raise --budget"
        )
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
        "size_cap": size_cap,
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

def _parse_complex(text):
    try:
        return complex(str(text).strip().replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


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
                        help="deepest cyclic identity to verify")
    verify.add_argument("--tau", type=_parse_complex, default=1j,
                        help="modular parameter, e.g. 0.21+1.3i")
    verify.add_argument("--hbar", type=_parse_complex, default=None,
                        help="fix the quantization parameter instead of sampling")
    verify.add_argument("--seed", type=int, default=12345)
    verify.add_argument("--samples", type=int, default=3,
                        help="random draws per case type")
    verify.add_argument("--size-cap", dest="size_cap", type=int,
                        default=DEFAULT_SIZE_CAP,
                        help="largest embedded matrix dimension allowed")
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
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 1 if s["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
