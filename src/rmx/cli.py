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
import os
import re
import sys
import time
import zlib
from functools import partial

import numpy as np

from .applications import (
    CalogeroConfig,
    check_hbar_order_relation,
    check_kzb_flatness,
    check_trace_power_guess,
)
from .errors import BudgetExceeded, RmxError, UsageError
from .identities import (
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

def _case_rng(seed, case_id):
    return np.random.default_rng([seed, zlib.crc32(case_id.encode())])


def _lattice_for(kind, tau):
    return LatticeParams(kind=FunctionKind(kind), tau=tau)


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


def _jsonify(obj):
    if isinstance(obj, complex):
        return _c2d(obj)
    if isinstance(obj, (np.complexfloating,)):
        return _c2d(complex(obj))
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


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
        "details": details or {},
    }


def _from_report(case_id, suite, kind, family, n, N, report, params):
    return _record(
        case_id, suite, kind, family, n, N,
        report.residual, report.tolerance, report.passed,
        params=params, details=report.details,
    )


# ---------------------------------------------------------------------------
# case runners
# ---------------------------------------------------------------------------

def _run_scalar_cyclic(case_id, kind, tau, n, seed, tol_overrides):
    lat = _lattice_for(kind, tau)
    rng = _case_rng(seed, case_id)
    pts = _sample_points(rng, lat, n)
    eta = _sample_hbar(rng, lat, 1, max_order=max(n - 2, 0))
    total = scalar_cyclic_sum(n, 1, eta, pts, lat)
    if n == 2:
        expected = weierstrass_p(eta, lat) - weierstrass_p(pts[0] - pts[1], lat)
    else:
        expected = (-1.0) ** n * weierstrass_p(eta, lat, deriv_order=n - 2)
    residual = abs(total - expected) / max(abs(expected), 1.0)
    tol = tol_overrides.get("scalar-cyclic", default_tolerance(kind, 1, n))
    return _record(
        case_id, "scalar", kind, None, n, 1, residual, tol, residual < tol,
        params={"eta": _c2d(eta), "points": [_c2d(p) for p in pts]},
        details={"total": _c2d(total), "expected": _c2d(expected)},
    )


def _run_fay(case_id, kind, tau, seed, tol_overrides, degenerate):
    lat = _lattice_for(kind, tau)
    rng = _case_rng(seed, case_id)
    z, w = _sample_points(rng, lat, 2)
    hbar = _sample_hbar(rng, lat, 1)
    if degenerate:
        eta = hbar
    else:
        eta = _sample_hbar(rng, lat, 1)
        while abs(eta - hbar) < 1e-3:
            eta = _sample_hbar(rng, lat, 1)
    residual = fay_check(hbar, eta, z, w, lat)
    tol = tol_overrides.get("fay", default_tolerance(kind, 1, 3))
    return _record(
        case_id, "scalar", kind, None, None, 1, residual, tol, residual < tol,
        params={"hbar": _c2d(hbar), "eta": _c2d(eta), "z": _c2d(z), "w": _c2d(w),
                "degenerate": degenerate},
    )


def _family_setup(family, kind, tau, N, seed, case_id, fixed_hbar, max_order=0,
                  n_points=2):
    lat = _lattice_for(kind, tau)
    rng = _case_rng(seed, case_id)
    pts = _sample_points(rng, lat, n_points)
    hbar = fixed_hbar if fixed_hbar is not None else _sample_hbar(
        rng, lat, N, max_order
    )
    spec = RMatrixSpec(kind=family, site_dim=N, lattice=lat, hbar=hbar)
    return spec, pts, rng


def _run_basic(case_id, case, family, kind, tau, N, seed, fixed_hbar, tol_overrides):
    if case == "unitarity":
        spec, pts, _ = _family_setup(family, kind, tau, N, seed, case_id, fixed_hbar)
        rep = check_unitarity(
            spec, pts[0] - pts[1],
            tolerance=tol_overrides.get("unitarity"),
        )
        params = {"z": _c2d(pts[0] - pts[1]), "hbar": _c2d(spec.hbar)}
    elif case == "skew-symmetry":
        spec, pts, _ = _family_setup(family, kind, tau, N, seed, case_id, fixed_hbar)
        rep = check_skew_symmetry(
            spec, pts[0] - pts[1],
            tolerance=tol_overrides.get("skew-symmetry"),
        )
        params = {"z": _c2d(pts[0] - pts[1]), "hbar": _c2d(spec.hbar)}
    elif case == "qybe":
        spec, pts, _ = _family_setup(
            family, kind, tau, N, seed, case_id, fixed_hbar, n_points=3
        )
        rep = check_qybe(spec, pts, tolerance=tol_overrides.get("qybe"))
        params = {"points": [_c2d(p) for p in pts], "hbar": _c2d(spec.hbar)}
    elif case == "aybe":
        spec, pts, rng = _family_setup(
            family, kind, tau, N, seed, case_id, fixed_hbar, n_points=3
        )
        eta = _sample_hbar(rng, spec.lattice, N)
        for _ in range(100):
            try:
                spec.validate_hbar(spec.hbar - eta)
                break
            except RmxError:
                eta = _sample_hbar(rng, spec.lattice, N)
        rep = check_aybe(spec, pts, eta, tolerance=tol_overrides.get("aybe"))
        params = {"points": [_c2d(p) for p in pts], "hbar": _c2d(spec.hbar),
                  "eta": _c2d(eta)}
    elif case == "same-site":
        spec, pts, _ = _family_setup(
            family, kind, tau, N, seed, case_id, fixed_hbar, n_points=1
        )
        rep = check_nth_order(
            spec, 1, pts, tolerance=tol_overrides.get("same-site")
        )
        params = {"z": _c2d(pts[0]), "hbar": _c2d(spec.hbar)}
    elif case == "classical":
        spec, pts, _ = _family_setup(
            family, kind, tau, N, seed, case_id, fixed_hbar, n_points=1
        )
        pair = classical_expansion(spec, pts[0])
        residual = max(pair.hbar_inverse_residual, pair.analytic_residual)
        tol = tol_overrides.get("classical", default_tolerance(family, N, 2))
        return _record(
            case_id, "rmatrix-basic", kind, family, None, N, residual, tol,
            residual < tol,
            params={"z": _c2d(pts[0]), "hbar": _c2d(spec.hbar)},
            details={
                "hbar_inverse_residual": pair.hbar_inverse_residual,
                "extraction_residual": pair.extraction_residual,
                "analytic_residual": pair.analytic_residual,
            },
        )
    elif case == "deriv-hbar":
        spec, pts, _ = _family_setup(family, kind, tau, N, seed, case_id, fixed_hbar)
        deriv = r_deriv_hbar(spec, pts[0], pts[1])
        residual = deriv.structural_residual
        tol = tol_overrides.get("deriv-hbar", default_tolerance(family, N, 3))
        return _record(
            case_id, "rmatrix-basic", kind, family, None, N, residual, tol,
            residual < tol,
            params={"z_a": _c2d(pts[0]), "z_b": _c2d(pts[1]),
                    "hbar": _c2d(spec.hbar)},
        )
    else:
        raise UsageError(f"unknown basic case {case}")
    return _from_report(case_id, "rmatrix-basic", kind, family,
                        _BASIC_ORDERS.get(case), N, rep, params)


def _run_nth_order(case_id, family, kind, tau, N, n, seed, fixed_hbar,
                   size_cap, tol_overrides):
    spec, pts, _ = _family_setup(
        family, kind, tau, N, seed, case_id, fixed_hbar,
        max_order=n - 2, n_points=n,
    )
    rep = check_nth_order(
        spec, n, pts, size_cap=size_cap,
        tolerance=tol_overrides.get("nth-order"),
    )
    return _from_report(
        case_id, "nth-order", kind, family, n, N, rep,
        {"points": [_c2d(p) for p in pts], "hbar": _c2d(spec.hbar)},
    )


def _run_outer_independence(case_id, family, kind, tau, N, n, seed, fixed_hbar,
                            size_cap, tol_overrides):
    spec, pts, _ = _family_setup(
        family, kind, tau, N, seed, case_id, fixed_hbar,
        max_order=n - 2, n_points=n,
    )
    rep = check_outer_index_independence(
        spec, n, pts, size_cap=size_cap,
        tolerance=tol_overrides.get("outer-independence"),
    )
    return _from_report(
        case_id, "nth-order", kind, family, n, N, rep,
        {"points": [_c2d(p) for p in pts], "hbar": _c2d(spec.hbar)},
    )


def _run_application(case_id, case, family, kind, tau, N, seed, fixed_hbar,
                     size_cap, tol_overrides):
    n_particles = 3
    spec, pts, rng = _family_setup(
        family, kind, tau, N, seed, case_id, fixed_hbar,
        max_order=2, n_points=n_particles,
    )
    if case.startswith("trace-power"):
        power = int(case.rsplit("k", 1)[1])
        momenta = rng.uniform(0.4, 1.6, n_particles) + 1j * rng.uniform(
            -0.3, 0.3, n_particles
        )
        coupling = complex(rng.uniform(0.5, 1.2))
        config = CalogeroConfig(
            rspec=spec, momenta=tuple(momenta), positions=tuple(pts),
            coupling=coupling,
        )
        rep = check_trace_power_guess(
            config, power, size_cap=size_cap,
            tolerance=tol_overrides.get("trace-power"),
        )
        params = {"power": power, "coupling": _c2d(coupling),
                  "hbar": _c2d(spec.hbar)}
    elif case == "kzb-flatness":
        rep = check_kzb_flatness(
            spec, pts, tolerance=tol_overrides.get("kzb-flatness")
        )
        params = {"points": [_c2d(p) for p in pts], "hbar": _c2d(spec.hbar)}
    elif case == "hbar-order":
        rep = check_hbar_order_relation(
            spec, n_particles, pts, size_cap=size_cap,
            tolerance=tol_overrides.get("hbar-order"),
        )
        params = {"points": [_c2d(p) for p in pts], "hbar": _c2d(spec.hbar)}
    else:
        raise UsageError(f"unknown application case {case}")
    return _from_report(case_id, "applications", kind, family, None, N, rep,
                        params)


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------

_BASIC_CASES = ("unitarity", "skew-symmetry", "qybe", "aybe", "same-site",
                "classical", "deriv-hbar")
# the member of the identity hierarchy that a basic case tests
_BASIC_ORDERS = {"same-site": 1, "unitarity": 2}
_APPLICATION_CASES = ("trace-power-k2", "trace-power-k3", "kzb-flatness",
                      "hbar-order")


def _build_cases(opts):
    """(runnable cases, pre-made skip records) for the requested sweep."""
    kinds = KINDS if opts["kind"] == "all" else (opts["kind"],)
    suites = SUITES if opts["suite"] == "all" else (opts["suite"],)
    seed = opts["seed"]
    tau = opts["tau"]
    N = opts["site_dim"]
    fixed_hbar = opts["hbar"]
    tols = opts["tol_overrides"]
    cases = []
    skips = []

    def add(case_id, family, n, case_N, runner, *args):
        # family, n and N go with the case so that an error record keeps them
        cases.append(((case_id, family, n, case_N),
                      partial(runner, case_id, *args)))

    def skip(suite, kind, case):
        case_id = f"{suite}/{kind}/{case}/s0"
        skips.append(_record(
            case_id, suite, kind, None, None, N, None, None, None,
            skipped=True,
            reason="no R-matrix family is attached to the trigonometric kind",
        ))

    if "scalar" in suites:
        for kind in kinds:
            for s in range(opts["samples"]):
                for n in range(2, opts["n_max"] + 1):
                    add(f"scalar/{kind}/cyclic-n{n}/s{s}", None, n, 1,
                        _run_scalar_cyclic, kind, tau, n, seed, tols)
                add(f"scalar/{kind}/fay/s{s}", None, None, 1,
                    _run_fay, kind, tau, seed, tols, False)
                add(f"scalar/{kind}/fay-degenerate/s{s}", None, None, 1,
                    _run_fay, kind, tau, seed, tols, True)

    for suite in ("rmatrix-basic", "nth-order", "applications"):
        if suite not in suites:
            continue
        for kind in kinds:
            family = _FAMILY_BY_KIND.get(kind)
            if family is None:
                case_types = (_BASIC_CASES if suite == "rmatrix-basic"
                              else _APPLICATION_CASES if suite == "applications"
                              else tuple(f"order-{n}"
                                         for n in range(3, opts["n_max"] + 1)))
                for case in case_types:
                    skip(suite, kind, case)
                continue
            if suite == "rmatrix-basic":
                for s in range(opts["samples"]):
                    for case in _BASIC_CASES:
                        add(f"rmatrix-basic/{kind}/{case}/s{s}", family,
                            _BASIC_ORDERS.get(case), N, _run_basic, case,
                            family, kind, tau, N, seed, fixed_hbar, tols)
            elif suite == "nth-order":
                for s in range(opts["samples"]):
                    for n in range(3, opts["n_max"] + 1):
                        add(f"nth-order/{kind}/order-{n}/s{s}", family, n, N,
                            _run_nth_order, family, kind, tau, N, n, seed,
                            fixed_hbar, opts["size_cap"], tols)
                        if s == 0:
                            add(f"nth-order/{kind}/outer-{n}/s0", family, n, N,
                                _run_outer_independence, family, kind, tau, N,
                                n, seed, fixed_hbar, opts["size_cap"], tols)
            else:
                for s in range(min(opts["samples"], APPLICATION_SAMPLE_CAP)):
                    for case in _APPLICATION_CASES:
                        add(f"applications/{kind}/{case}/s{s}", family, None,
                            N, _run_application, case, family, kind, tau, N,
                            seed, fixed_hbar, opts["size_cap"], tols)
    return cases, skips


def _execute(cases):
    records = []
    for (case_id, family, n, N), fn in cases:
        try:
            records.append(fn())
        except RmxError as exc:
            suite, kind = case_id.split("/")[:2]
            records.append(_record(
                case_id, suite, kind, family, n, N, None, None, False,
                reason=f"{type(exc).__name__}: {exc}",
            ))
    return records


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
    if site_dim < 1:
        raise UsageError(f"N must be >= 1, got {site_dim}")
    if n_max < 2:
        raise UsageError(f"n-max must be >= 2, got {n_max}")
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    tau = complex(tau)
    if tau.imag <= 0:
        raise UsageError(f"tau must have positive imaginary part, got {tau}")
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
        "hbar": None if hbar is None else complex(hbar),
        "seed": int(seed),
        "samples": samples,
        "size_cap": size_cap,
        "budget": budget,
        "deterministic": bool(deterministic),
        "tol_overrides": dict(tol_overrides or {}),
    }

    start = time.monotonic()
    cases, skips = _build_cases(opts)
    records = _execute(cases) + skips
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
        "config": _jsonify(opts),
        "records": _jsonify(records),
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


_TOL_FLAG = re.compile(r"^--tol\.([A-Za-z][A-Za-z0-9-]*)(?:=(.*))?$")


def _extract_tol_flags(argv):
    """Pull --tol.<name> overrides out of argv before argparse sees them."""
    rest = []
    tols = {}
    i = 0
    while i < len(argv):
        m = _TOL_FLAG.match(argv[i])
        if m:
            name, value = m.group(1), m.group(2)
            if value is None:
                if i + 1 >= len(argv):
                    raise UsageError(f"--tol.{name} needs a value")
                value = argv[i + 1]
                i += 1
            try:
                tols[name] = float(value)
            except ValueError:
                raise UsageError(f"--tol.{name} value {value!r} is not a number")
        else:
            rest.append(argv[i])
        i += 1
    return rest, tols


def _load_config(path, verify):
    """key = value file; '#' starts a comment; tol.<name> keys set tolerances.

    The keys are the long flags of the ``verify`` parser without dashes.
    """
    keys = {}
    for action in verify._actions:
        if action.dest not in ("help", "config"):
            # a flag that takes no value is set by true / false
            conv = None if action.nargs == 0 else (action.type or str)
            keys[action.option_strings[0][2:]] = (action.dest, conv)
    defaults = {}
    tols = {}
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
        if key.startswith("tol."):
            try:
                tols[key[4:]] = float(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad tolerance {value!r}")
            continue
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
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
    return defaults, tols


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rmx",
        description="Quantum R-matrix identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify",
        help="sample random data and sweep the identity checks",
        epilog=(
            "Per-check tolerance overrides use --tol.<name> <value> with "
            "names scalar-cyclic, fay, unitarity, skew-symmetry, qybe, aybe, "
            "same-site, classical, deriv-hbar, nth-order, outer-independence, "
            "trace-power, kzb-flatness, hbar-order."
        ),
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
    return parser, verify


def main(argv=None):
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, flag_tols = _extract_tol_flags(argv)
        parser, verify_parser = _build_parser()
        probe = argparse.ArgumentParser(add_help=False)
        probe.add_argument("--config", default=None)
        known, _ = probe.parse_known_args(argv)
        config_tols = {}
        if known.config is not None:
            defaults, config_tols = _load_config(known.config, verify_parser)
            verify_parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
        tols = {**config_tols, **flag_tols}
        report = run_suites(
            suite=args.suite,
            kind=args.kind,
            site_dim=args.site_dim,
            n_max=args.n_max,
            tau=args.tau,
            hbar=args.hbar,
            seed=args.seed,
            samples=args.samples,
            size_cap=args.size_cap,
            budget=args.budget,
            deterministic=args.deterministic,
            tol_overrides=tols,
        )
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
