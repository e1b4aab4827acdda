"""End-to-end benchmark of ``rmx.run_suites`` sweeps.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload sweep-mixed --seed 1 --seconds 50 --trace 0

The workloads are defined in ``bench/workloads.json``.  A run imports ``rmx``
from ``src/`` of the checkout and repeats the workload's serial sweep at seed
``--seed`` for about ``--seconds`` seconds, and at least ``MIN_SWEEPS`` times.
A sweep runs as one ``run_suites`` call per (suite, kind) part.  Every sweep's report is checked: the executed and skipped counts
must equal those recorded for the workload, every executed case must pass,
and the records must repeat those of the run's first sweep.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` it alternates untraced and traced sweeps,
so the traced records are checked against untraced ones, reports the
per-layer metrics from the spans of ``tracer.Tracer`` and finally runs one
traced sweep under cProfile to check that the tracer saw every call.

Earlier lines of standard output give the machine, a metric table and, when
tracing, a per-function table.  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when the outputs are correct, 1 when they are not and 2 when the
benchmark cannot run (no ``src/rmx`` in the checkout, unknown workload).
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# One BLAS thread: the sweeps are serial, and a single thread keeps the
# dense matmuls of ladder-deep from competing with other work on small hosts.
BLAS_THREADS = "1"
MIN_SWEEPS = 3
SETUP_STARTS = 9

# Runs in a fresh interpreter: import rmx, then the first R-matrix call,
# which fills the lazy caches (the T tensor T stack and theta'(0)).
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rmx
lat = rmx.LatticeParams("elliptic", complex(sys.argv[3]))
spec = rmx.RMatrixSpec(kind="belavin", site_dim=int(sys.argv[2]), lattice=lat,
                       hbar=0.11 + 0.13j)
rmx.r_matrix(spec, 0.31 + 0.17j)
print(time.perf_counter() - t0)
"""


def load_rmx():
    """Import rmx from this checkout's src/, never from an installed copy."""
    if not (SRC_DIR / "rmx" / "__init__.py").is_file():
        print(f"error: no rmx sources under {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC_DIR))
    import rmx
    if Path(rmx.__file__).resolve().parent != SRC_DIR / "rmx":
        print(f"error: imported rmx from {rmx.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        raise SystemExit(2)
    return rmx


def load_workloads():
    return json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"]


def sweep_inputs(workload):
    """run_suites keywords of a workload entry of workloads.json."""
    inputs = dict(workload["inputs"])
    inputs["tau"] = complex(inputs["tau"])
    return inputs


# ---------------------------------------------------------------------------
# machine
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    import numpy as np
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_start(inputs):
    """Set-up seconds of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC_DIR),
         str(inputs["site_dim"]), str(inputs["tau"])],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def warm_up(rmx, inputs):
    lat = rmx.LatticeParams("elliptic", inputs["tau"])
    spec = rmx.RMatrixSpec(kind="belavin", site_dim=inputs["site_dim"],
                           lattice=lat, hbar=0.11 + 0.13j)
    rmx.r_matrix(spec, 0.31 + 0.17j)


def sweep(rmx, inputs, seed):
    """(seconds of each part, merged report) of one sweep.

    The sweep runs as one run_suites call per (suite, kind) part.  Every
    case draws its inputs from the seed and its own case id, so the parts
    together give the records of the whole sweep.
    """
    suites = rmx.cli.SUITES if inputs["suite"] == "all" else (inputs["suite"],)
    kinds = rmx.cli.KINDS if inputs["kind"] == "all" else (inputs["kind"],)
    times, records, summary = [], [], Counter()
    for suite in suites:
        for kind in kinds:
            # run_suites is serial by default; --parallel is not benchmarked
            t0 = perf_counter()
            report = rmx.run_suites(seed=seed, **dict(inputs, suite=suite, kind=kind))
            times.append(perf_counter() - t0)
            records += report["records"]
            summary.update(report["summary"])
    return times, {"records": records, "summary": summary}


def check_report(report, expected):
    """(problems, executed, failed, residual/tolerance per executed case).

    A case that raised a typed RmxError has no residual; its ratio is inf.
    """
    problems = []
    summary = report["summary"]
    for key in ("executed", "skipped"):
        if summary[key] != expected[key]:
            problems.append(f"{key} = {summary[key]}, expected {expected[key]}")
    executed = [r for r in report["records"] if not r["skipped"]]
    bad = [r for r in executed if not r["passed"]]
    ratios = [math.inf if r["residual"] is None else r["residual"] / r["tolerance"]
              for r in executed]
    worst = max(ratios, default=math.inf)
    if not worst < 1:
        problems.append(f"worst residual/tolerance = {worst}")
    problems += [f"{r['case_id']} failed: {r['reason'] or r['residual']}"
                 for r in bad[:5]]
    return problems, len(executed), len(bad), ratios


def resid_digits(ratio):
    """Decimal digits between a residual and its tolerance, from 0 to 8.

    Residuals sit 1 to 7 digits below their tolerances; the cap keeps a
    residual that is exactly 0 (or rounds to it) from weighing more than
    one a little above it.
    """
    return min(max(-math.log10(ratio), 0.0), 8.0) if ratio > 0 else 8.0


class Run:
    """Tallies of one benchmark run over all its sweeps."""

    def __init__(self, workload):
        self.expected = workload["expected"]
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.digits = 0.0
        self.digest = None

    def check(self, report, what="sweep"):
        """Check one report; every sweep of a run must repeat the first one's records."""
        problems, executed, failed, ratios = check_report(report, self.expected)
        # a digest rather than the records, so that peak_rss_mb measures rmx
        digest = hashlib.sha256(json.dumps(report["records"]).encode()).digest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"{what} records differ from the first sweep's")
        self.problems += problems
        self.attempted += executed
        self.failed += failed
        self.worst = max([self.worst] + ratios)
        self.digits += sum(resid_digits(q) for q in ratios)


def keep_going(start, seconds, times):
    """Whether one more repetition ends nearer to ``seconds`` than stopping now."""
    return perf_counter() - start + statistics.median(times) / 2 < seconds


def measure_untraced(rmx, run, inputs, seed, seconds):
    """End-to-end metrics over repeated sweeps with tracing off.

    wall_s is the sweep's time on a quiet host: the fastest time of each
    part in the run, summed.  On a shared host the speed of the same code
    drifts by 20% or more over seconds to minutes.  A part takes 60 ms at
    most in sweep-mixed, and it nearly always meets a quiet spell in a run;
    a whole sweep often does not, and the median sweep follows the host's
    load.  The set-up starts are spread over the run so that one busy
    spell does not set their median.
    """
    setup_start(inputs)  # unmeasured: the first start may compile .pyc files
    warm_up(rmx, inputs)
    setups, walls, fastest = [], [], None
    start = perf_counter()
    while len(walls) < MIN_SWEEPS or keep_going(start, seconds, walls):
        # start k is due once k / SETUP_STARTS of the run has passed
        while (len(setups) < SETUP_STARTS
               and perf_counter() - start >= len(setups) * seconds / SETUP_STARTS):
            setups.append(setup_start(inputs))
        times, report = sweep(rmx, inputs, seed)
        run.check(report)
        fastest = times if fastest is None else list(map(min, fastest, times))
        walls.append(sum(times))
    setups += [setup_start(inputs) for _ in range(SETUP_STARTS - len(setups))]
    print(f"{len(walls)} sweeps of {len(fastest)} parts: median "
          f"{statistics.median(walls):.4f} s, slowest {max(walls):.4f} s; "
          f"worst residual/tolerance {run.worst:.4g}")
    executed = max(run.attempted, 1)
    return {
        "wall_s": (sum(fastest), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "resid_digits": (run.digits / executed, "digits"),
        "pass_frac": ((run.attempted - run.failed) / executed, "ratio"),
    }


LAYER_METRICS = [f"{layer}.{stat}" for layer in tracer.LAYERS if layer != "cli"
                 for stat in ("self_s", "calls", "errors")] + ["cli.self_s"]
FUNCTION_METRICS = [
    "special_functions.lattice_distance.calls",
    "special_functions.kronecker_phi.calls",
    "special_functions.kronecker_phi.points",
    "special_functions.weierstrass_p.calls",
    "special_functions.scalar_cyclic_sum.self_s",
    "rmatrix.r_matrix.calls",
    "rmatrix.classical_expansion.self_s",
    "tensor_ops.embed_two_site.calls",
    "tensor_ops.embed_two_site.bytes",
    "tensor_ops.is_scalar_operator.self_s",
    "identities.cyclic_product_sum.calls",
    "identities.cyclic_product_sum.self_s",
    "applications.block_matrix_power.self_s",
]
UNITS = {"self_s": "s", "calls": "count", "errors": "count", "points": "count",
         "bytes": "B"}


def layer_figures(summary):
    """Per-layer metric values of one traced sweep, keyed by metric name."""
    out = {}
    for name in LAYER_METRICS:
        layer, stat = name.split(".")
        out[name] = summary["layers"][layer][stat]
    for name in FUNCTION_METRICS:
        func, stat = name.rsplit(".", 1)
        figures = summary["functions"].get(func)
        if figures is None:
            out[name] = 0
        elif stat in ("self_s", "calls", "errors"):
            out[name] = figures[stat]
        else:
            out[name] = figures["amount"]
    return out


def measure_traced(rmx, run, inputs, seed, seconds):
    """Per-layer metrics from traced sweeps, each paired with an untraced one."""
    warm_up(rmx, inputs)
    untraced, traced, figures, gaps = [], [], [], []
    start = perf_counter()
    while not traced or keep_going(
            start, seconds, [u + t for u, t in zip(untraced, traced)]):
        times, report = sweep(rmx, inputs, seed)
        wall_u = sum(times)
        run.check(report)
        spans = tracer.Tracer(rmx)
        with spans.installed():
            times, report = sweep(rmx, inputs, seed)
        wall_t = sum(times)
        run.check(report, "traced")
        summary = spans.summary()
        if summary["orphans"]:
            run.problems.append(f"{summary['orphans']} spans have no parent")
        layer_self = sum(v["self_s"] for v in summary["layers"].values())
        gaps.append(wall_t - layer_self)
        if abs(wall_t - layer_self) > 0.01 * wall_t:
            run.problems.append(
                f"layer self times sum to {layer_self:.6f} s of {wall_t:.6f} s")
        untraced.append(wall_u)
        traced.append(wall_t)
        figures.append(layer_figures(summary))
        del spans, report

    profiled = tracer.Tracer(rmx)
    profile = cProfile.Profile()
    with profiled.installed():
        report = profile.runcall(sweep, rmx, inputs, seed)[1]
    run.check(report, "profiled")
    wrapped = {name: f["calls"] for name, f in profiled.summary()["functions"].items()}
    counted = tracer.profile_counts(profile, profiled.originals)
    for name in wrapped:
        if wrapped[name] != counted[name]:
            run.problems.append(
                f"{name}: {wrapped[name]} wrapped calls, {counted[name]} in cProfile")

    print_functions(summary)
    metrics = {name: (statistics.median(f[name] for f in figures),
                      UNITS[name.rsplit(".", 1)[1]])
               for name in LAYER_METRICS + FUNCTION_METRICS}
    metrics["trace.overhead_s"] = (
        statistics.median(t - u for t, u in zip(traced, untraced)), "s")
    metrics["trace.gap_s"] = (statistics.median(gaps), "s")
    return metrics


def print_functions(summary):
    rows = sorted(summary["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'function':<44} {'calls':>8} {'self_s':>10} {'errors':>6}  top caller")
    for name, f in rows:
        if f["calls"]:
            caller, n = f["callers"].most_common(1)[0]
            print(f"{name:<44} {f['calls']:>8} {f['self_s']:>10.4f} "
                  f"{f['errors']:>6}  {caller} ({n})")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    rmx = load_rmx()
    print(json.dumps({"machine": machine_info()}))
    run = Run(workloads[args.workload])
    inputs = sweep_inputs(workloads[args.workload])
    measure = measure_traced if args.trace else measure_untraced
    metrics = measure(rmx, run, inputs, args.seed, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
