"""Fast self-test of the benchmark harness on a tiny sweep.

Run from the root of the checkout with ``python3 -m pytest -q bench``.
"""

import cProfile
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

# Every layer, in a tenth of a second: scalar, basic, order-3 and application
# cases at N=2, with the trigonometric kind skipped.
TINY = {
    "inputs": {"suite": "all", "kind": "all", "site_dim": 2, "n_max": 3,
               "tau": "1j", "samples": 1},
    "expected": {"executed": 38, "skipped": 12},
}


@pytest.fixture(scope="module")
def rmx():
    return run.load_rmx()


@pytest.fixture(scope="module")
def bench_spec():
    return json.loads((ROOT_DIR / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark(bench_spec):
    assert sorted(w["name"] for w in bench_spec["workloads"]) == sorted(
        run.load_workloads())


def test_untraced_metric_names(rmx, bench_spec):
    r = run.Run(TINY)
    metrics = run.measure_untraced(rmx, r, run.sweep_inputs(TINY), 1, 0)
    assert r.problems == []
    assert r.attempted == run.MIN_SWEEPS * TINY["expected"]["executed"]
    assert {m["name"]: m["unit"] for m in bench_spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_metric_names_and_fidelity(rmx, bench_spec):
    # measure_traced records a problem if traced and untraced records differ,
    # if a span has no parent, or if wrapper counts disagree with cProfile.
    r = run.Run(TINY)
    metrics = run.measure_traced(rmx, r, run.sweep_inputs(TINY), 1, 0)
    assert r.problems == []
    assert {m["name"]: m["unit"] for m in bench_spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    for layer in ("special_functions", "rmatrix", "tensor_ops", "identities",
                  "applications"):
        assert metrics[f"{layer}.calls"][0] > 0


def test_traced_sweep_returns_identical_records(rmx):
    inputs = run.sweep_inputs(TINY)
    _, plain = run.sweep(rmx, inputs, 7)
    spans = tracer.Tracer(rmx)
    with spans.installed():
        _, traced = run.sweep(rmx, inputs, 7)
    assert traced["records"] == plain["records"]
    summary = spans.summary()
    assert summary["orphans"] == 0
    # one run_suites call per (suite, kind) part
    assert summary["functions"]["cli.run_suites"]["calls"] == 12
    # the wrappers are gone after the block
    assert rmx.identities.r_matrix is spans.originals["rmatrix.r_matrix"]


def test_sweep_parts_give_the_whole_sweeps_records(rmx):
    inputs = run.sweep_inputs(TINY)
    times, parts = run.sweep(rmx, inputs, 3)
    whole = rmx.run_suites(seed=3, **inputs)
    assert len(times) == 12 and all(t > 0 for t in times)
    assert parts["summary"]["executed"] == whole["summary"]["executed"]
    assert parts["summary"]["skipped"] == whole["summary"]["skipped"]
    by_id = sorted(parts["records"], key=lambda r: r["case_id"])
    assert by_id == sorted(whole["records"], key=lambda r: r["case_id"])


def test_profile_check_catches_an_unwrapped_binding(rmx):
    spans = tracer.Tracer(rmx)
    profile = cProfile.Profile()
    with spans.installed():
        wrapped = rmx.identities.r_matrix
        rmx.identities.r_matrix = spans.originals["rmatrix.r_matrix"]
        try:
            profile.runcall(run.sweep, rmx, run.sweep_inputs(TINY), 1)
        finally:
            rmx.identities.r_matrix = wrapped
    counted = tracer.profile_counts(profile, spans.originals)
    calls = spans.summary()["functions"]["rmatrix.r_matrix"]["calls"]
    assert counted["rmatrix.r_matrix"] > calls


def test_output_check_flags_bad_reports(rmx):
    _, report = run.sweep(rmx, run.sweep_inputs(TINY), 1)
    assert run.check_report(report, TINY["expected"])[0] == []

    fewer = {"executed": 39, "skipped": 12}
    assert run.check_report(report, fewer)[0] == ["executed = 38, expected 39"]

    tally = run.Run(TINY)
    tally.check(report)
    tally.check(report)
    assert tally.problems == []

    executed = next(r for r in report["records"] if not r["skipped"])
    executed.update(details={"total": 0.0})
    tally.check(report)
    assert tally.problems == ["sweep records differ from the first sweep's"]

    executed.update(passed=False, residual=2 * executed["tolerance"])
    problems, _, failed, ratios = run.check_report(report, TINY["expected"])
    assert failed == 1 and max(ratios) == 2 and len(problems) == 2

    executed.update(residual=None, tolerance=None, reason="PoleProximity: z")
    problems, _, failed, _ = run.check_report(report, TINY["expected"])
    assert failed == 1 and any("PoleProximity" in p for p in problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT_DIR / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
