import argparse
import copy
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import rmx
from rmx import (
    BudgetExceeded,
    DimensionMismatch,
    SeriesNotConverged,
    SizeCapExceeded,
    UsageError,
    applications,
    cli,
    cyclic_sum_cost,
    identities,
    rmatrix,
    run_suites,
    tensor_ops,
)
from rmx.cli import DEFAULT_BUDGET, _parse_complex, main

from dense_oracle import round_off_equal


# every tolerance name, in epilog order, and the case types whose tolerance it
# sets; a case type ending in "-", "-k" or "-n" stands for its numbered cases
# (order-3, trace-power-k2, cyclic-n2, ...)
TOLERANCE_CASES = {
    "scalar-cyclic": ("cyclic-n",),
    "fay": ("fay", "fay-degenerate"),
    "unitarity": ("unitarity",),
    "skew-symmetry": ("skew-symmetry",),
    "qybe": ("qybe",),
    "aybe": ("aybe",),
    "same-site": ("same-site",),
    "classical": ("classical",),
    "deriv-hbar": ("deriv-hbar",),
    "nth-order": ("order-",),
    "outer-independence": ("outer-",),
    "trace-power": ("trace-power-k",),
    "kzb-flatness": ("kzb-flatness",),
    "hbar-order": ("hbar-order",),
}


def small(**kw):
    base = dict(suite="scalar", samples=1, n_max=3)
    base.update(kw)
    return run_suites(**base)


def refuse_each(requests):
    """A batch entry that raises on every request it is given."""
    raise DimensionMismatch("refused")


def n_max_cost(N, n_max):
    """The budget's price of the nth-order suite: outer-n_max runs n_max
    cyclic product sums."""
    return n_max * cyclic_sum_cost(N, n_max)


class TestRunSuites:
    def test_report_shape_and_config_echo(self):
        rep = small()
        assert rep["schema_version"] == 1
        cfg = rep["config"]
        assert cfg["suite"] == "scalar"
        assert cfg["site_dim"] == 2
        assert cfg["n_max"] == 3
        assert cfg["samples"] == 1
        assert cfg["seed"] == 12345
        assert cfg["deterministic"] is True
        s = rep["summary"]
        assert s["total"] == len(rep["records"])
        assert s["executed"] + s["skipped"] == s["total"]
        assert s["passed"] + s["failed"] == s["executed"]
        assert s["failed"] == 0

    def test_records_sorted_and_json_clean(self):
        rep = small(kind="all")
        keys = [
            (r["suite"], r["kind"], r["n"] or 0, r["case_id"])
            for r in rep["records"]
        ]
        assert keys == sorted(keys)
        # round-trips through json without custom encoders
        blob = json.dumps(rep)
        assert json.loads(blob)["summary"] == rep["summary"]

    def test_scalar_suite_runs_every_kind(self):
        rep = small(kind="all")
        kinds = {r["kind"] for r in rep["records"]}
        assert kinds == {"rational", "trigonometric", "elliptic"}
        assert all(not r["skipped"] for r in rep["records"])

    def test_trigonometric_matrix_suites_are_skipped(self):
        rep = run_suites(suite="rmatrix-basic", kind="trigonometric",
                         samples=1, n_max=3)
        assert rep["summary"]["executed"] == 0
        assert rep["summary"]["skipped"] == len(rep["records"]) > 0
        for r in rep["records"]:
            assert r["passed"] is None
            assert "trigonometric" in r["reason"]

    def test_all_suites_pass_at_small_size(self):
        rep = run_suites(samples=1, n_max=3)
        assert rep["summary"]["failed"] == 0
        assert rep["summary"]["executed"] > 0
        suites = {r["suite"] for r in rep["records"]}
        assert suites == {"scalar", "rmatrix-basic", "nth-order", "applications"}

    def test_tol_override_can_force_failure(self):
        rep = run_suites(suite="rmatrix-basic", kind="rational", samples=1,
                         n_max=3, tol_overrides={"unitarity": 1e-30})
        failures = [r for r in rep["records"] if r["passed"] is False]
        assert failures
        assert all("unitarity" in r["case_id"] for r in failures)
        assert rep["summary"]["failed"] == len(failures)

    @pytest.mark.parametrize("name", sorted(TOLERANCE_CASES))
    def test_each_tolerance_name_fails_exactly_its_cases(self, name):
        # the smallest positive tolerance fails each case of the name, except
        # one whose residual is exactly 0 (Yang skew symmetry here); a
        # tolerance <= 0 is refused
        tol = 5e-324
        rep = run_suites(kind="rational", samples=1, n_max=4,
                         tol_overrides={name: tol})
        assert rep["summary"]["executed"] == 20
        judged = [r for r in rep["records"] if r["tolerance"] == tol]
        assert {re.sub(r"\d+$", "", r["case_id"].split("/")[2])
                for r in judged} == set(TOLERANCE_CASES[name])
        failed = [r for r in rep["records"] if r["passed"] is False]
        assert failed == [r for r in judged if r["residual"] > 0]
        assert failed or name == "skew-symmetry"
        assert rep["config"]["tol_overrides"] == {name: tol}

    def test_unknown_tolerance_names_are_rejected(self, tmp_path, capsys):
        with pytest.raises(UsageError, match="'unitarty'.*hbar-order"):
            run_suites(suite="scalar", tol_overrides={"unitarty": 1e-30})
        for argv in (["--tol.unitarty", "1e-30"], ["--tol.unitarty=1e-30"]):
            assert main(["verify", "--suite", "scalar"] + argv) == 2
            err = capsys.readouterr().err
            assert "unitarty" in err and "outer-independence" in err
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("suite = scalar\ntol.unitarty = 1e-30\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "tol.unitarty" in err and "tol.outer-independence" in err

    def test_epilog_lists_the_tolerance_names(self):
        _, verify = cli._build_parser()
        names = re.search(r"with names (.*)\.$", verify.epilog).group(1)
        assert names.split(", ") == list(TOLERANCE_CASES)
        assert list(dict.fromkeys(c.tol for c in cli._CASES.values())) == list(
            TOLERANCE_CASES)

    def test_budget_guard(self):
        # screened before the size cap, which 3**9 passes too
        with pytest.raises(BudgetExceeded):
            run_suites(site_dim=3, n_max=9)

    def test_n_max_beyond_the_wp_order_cap_is_refused(self, capsys):
        # order 9 would compare with wp^(7); within the budget it is refused
        # up front instead of failing its cases
        cap = cli.MAX_WP_DERIV_ORDER + 2
        with pytest.raises(UsageError, match=f"above {cap}"):
            run_suites(suite="nth-order", kind="elliptic", n_max=cap + 1, samples=1)
        assert main(["verify", "--suite", "nth-order", "--kind", "elliptic",
                     "--N", "2", "--n-max", str(cap + 1), "--samples", "1"]) == 2
        assert f"above {cap}" in capsys.readouterr().err
        rep = run_suites(suite="scalar", kind="rational", n_max=cap, samples=1)
        assert rep["summary"]["failed"] == 0

    def test_budget_admits_deep_ladders(self):
        # rmatrix-basic runs no cyclic sum, so only the budget check is costly
        for N, n_max in ((2, 8), (3, 6)):
            rep = run_suites(suite="rmatrix-basic", kind="rational",
                             site_dim=N, n_max=n_max, samples=1)
            assert rep["summary"]["failed"] == 0

    def test_budget_admits_what_the_factorial_estimate_admitted(self):
        for N in range(1, 5):
            for n_max in range(2, 13):
                if math.factorial(n_max) * N ** (2 * n_max) <= 1e9:
                    assert n_max * cyclic_sum_cost(N, n_max) <= DEFAULT_BUDGET

    @pytest.mark.parametrize("N, n_max, executed", [(2, 8, 24), (3, 6, 16)])
    def test_deep_elliptic_ladders_pass(self, N, n_max, executed):
        rep = run_suites(suite="nth-order", kind="elliptic", site_dim=N,
                         n_max=n_max)
        assert rep["summary"]["executed"] == executed
        assert rep["summary"]["failed"] == 0

    @pytest.mark.parametrize("N, n_max, executed", [(3, 6, 161), (4, 5, 144)])
    def test_every_case_passes_above_N_2(self, N, n_max, executed):
        rep = run_suites(site_dim=N, n_max=n_max)
        assert rep["summary"]["executed"] == executed
        assert rep["summary"]["failed"] == 0

    def test_basic_records_carry_their_order(self):
        rep = run_suites(suite="rmatrix-basic", samples=2, n_max=3)
        orders = {"same-site": 1, "unitarity": 2}
        for r in rep["records"]:
            if not r["skipped"]:
                assert r["n"] == orders.get(r["case_id"].split("/")[2])
        # the records stay in case-id order
        ids = [r["case_id"] for r in rep["records"]]
        assert ids == sorted(ids)

    def test_basic_error_records_carry_their_order(self, monkeypatch):
        # same-site and unitarity are order-1 and order-2 requests of the
        # part's cyclic batch
        monkeypatch.setattr(cli, "check_cyclic_batch", refuse_each)
        rep = run_suites(suite="rmatrix-basic", kind="rational", samples=1,
                         n_max=3)
        failed = {r["case_id"].split("/")[2]: r["n"]
                  for r in rep["records"] if r["reason"]}
        assert failed == {"same-site": 1, "unitarity": 2}

    def test_error_records_keep_family_and_sizes(self, monkeypatch):
        monkeypatch.setattr(cli, "check_cyclic_batch", refuse_each)
        rep = run_suites(suite="nth-order", kind="elliptic", site_dim=2,
                         n_max=3, samples=1)
        assert rep["summary"]["failed"] == 2
        for r in rep["records"]:
            assert r["reason"] == "DimensionMismatch: refused"
            assert (r["family"], r["N"], r["n"]) == ("belavin", 2, 3)

    @pytest.mark.parametrize("suite, N, n_max", [
        ("nth-order", 3, 8), ("nth-order", 4, 7),
        # the 3-site checks and the applications act on N**3 dimensions
        ("rmatrix-basic", 17, 2), ("applications", 17, 2)])
    def test_size_cap_refuses_before_any_case(self, monkeypatch, suite, N,
                                              n_max):
        cases, draws = [], []
        monkeypatch.setattr(cli, "_run_case", lambda *a: cases.append(a))
        monkeypatch.setattr(cli, "_sample_points", lambda *a: draws.append(a))
        sites = max(n_max, 3)
        want = f"{N}**{sites} = {N ** sites} exceeds the size cap 4096"
        with pytest.raises(SizeCapExceeded, match=re.escape(want)):
            run_suites(suite=suite, kind="elliptic", site_dim=N, n_max=n_max)
        assert cases == [] and draws == []

    def test_guards_price_the_requested_suites(self, capsys):
        # the scalar suite runs at N = 1 and rmatrix-basic acts on 3 sites,
        # so neither is refused for the N**n_max or the cyclic sums of the
        # nth-order suite
        for suite in ("scalar", "rmatrix-basic"):
            assert main(["verify", "--suite", suite, "--kind", "rational",
                         "--N", "5", "--n-max", "6", "--samples", "1"]) == 0
        capsys.readouterr()
        rep = run_suites(suite="scalar", site_dim=5, n_max=6, samples=1)
        assert rep["summary"]["executed"] > 0
        assert rep["summary"]["failed"] == 0
        with pytest.raises(SizeCapExceeded, match=re.escape("3**8 = 6561")):
            run_suites(suite="nth-order", site_dim=3, n_max=8)
        # a cost above the budget refuses nth-order only
        assert n_max_cost(2, 6) > 1e6
        with pytest.raises(BudgetExceeded):
            run_suites(suite="nth-order", n_max=6, budget=1e6)
        run_suites(suite="rmatrix-basic", kind="rational", n_max=6, samples=1,
                   budget=1e6)

    def test_whole_sweep_refuses_what_it_refused(self, monkeypatch):
        # --suite all holds the nth-order suite: it is refused by the budget
        # on n_max cyclic sums at N and by the cap on N**max(n_max, 3)
        monkeypatch.setattr(cli, "_sweep", lambda opts: [])
        for N in range(1, 18):
            for n_max in range(2, 9):
                refused = (n_max_cost(N, n_max) > DEFAULT_BUDGET
                           or N ** max(n_max, 3) > 4096)
                try:
                    run_suites(site_dim=N, n_max=n_max)
                except (BudgetExceeded, SizeCapExceeded):
                    assert refused
                else:
                    assert not refused

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j])
    def test_rank_one_sweep(self, tau):
        rep = run_suites(suite="all", site_dim=1, tau=tau)
        assert rep["summary"]["executed"] == 127
        assert rep["summary"]["skipped"] == 13
        assert rep["summary"]["failed"] == 0

    def test_option_validation(self):
        with pytest.raises(UsageError):
            run_suites(suite="bogus")
        with pytest.raises(UsageError):
            run_suites(kind="bogus")
        with pytest.raises(UsageError):
            run_suites(tau=1.0)
        with pytest.raises(UsageError):
            run_suites(samples=0)
        with pytest.raises(UsageError):
            run_suites(n_max=1)
        for bad in (dict(tau="abc"), dict(hbar="x"), dict(tau=None),
                    dict(n_max=3.5), dict(site_dim=2.5), dict(samples="3"),
                    dict(seed=-1), dict(seed=1.5), dict(tol_overrides={"fay": "tight"}),
                    dict(budget="x"), dict(budget=float("nan"))):
            with pytest.raises(UsageError):
                run_suites(suite="scalar", **bad)
        # complex() strings and numpy integers are accepted and echoed plainly
        rep = run_suites(suite="scalar", kind="rational", tau="1j", hbar="0.5+0.2j",
                         site_dim=np.int64(2), n_max=np.int32(2),
                         samples=np.int64(1), budget=float("inf"))
        cfg = rep["config"]
        assert (cfg["tau"], cfg["hbar"]) == ({"re": 0.0, "im": 1.0},
                                             {"re": 0.5, "im": 0.2})
        assert [type(cfg[k]) for k in ("site_dim", "n_max", "samples")] == [int] * 3
        assert rep["summary"]["failed"] == 0

    def test_deterministic_repeat_is_identical(self):
        a = small(samples=2)
        b = small(samples=2)
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_nondeterministic_runs_reseed(self):
        a = run_suites(suite="scalar", samples=1, n_max=2, deterministic=False)
        b = run_suites(suite="scalar", samples=1, n_max=2, deterministic=False)
        assert a["config"]["seed"] != b["config"]["seed"]

    def test_fixed_hbar_is_used_and_echoed(self):
        rep = run_suites(suite="rmatrix-basic", kind="elliptic", samples=1,
                         n_max=3, hbar=0.13 + 0.08j)
        assert rep["config"]["hbar"] == {"re": 0.13, "im": 0.08}
        assert rep["summary"]["failed"] == 0


def _outcome(value):
    """A draw, or the type and text of the error its sampler met."""
    return (type(value), str(value)) if isinstance(value, Exception) else value


def _spy_on_draws(monkeypatch):
    """Record every sampler call: copies of its streams as they were before
    it, its other arguments, its result and the states it left the streams in."""
    calls = []
    for name in ("_sample_points", "_sample_hbar"):
        def spy(rngs, *args, _sampler=getattr(cli, name)):
            before = copy.deepcopy(rngs)
            out = _sampler(rngs, *args)
            after = [rng.bit_generator.state for rng in rngs]
            calls.append((_sampler, before, args, out, after))
            return out
        monkeypatch.setattr(cli, name, spy)
    return calls


class TestDraws:
    """A part's cases draw from their own streams, but are screened together."""

    @pytest.mark.parametrize("N, tau, cap, failures", [
        (2, 1j, None, 0), (3, 1j, None, 0),
        # dense lattice: cases fail to draw their points
        (2, 5.3 + 0.05j, None, 32),
        # screens reject over many rounds, and cases run out of hbar draws
        (2, 1j, 30.0, 19)])
    def test_batched_draws_equal_lone_draws(self, monkeypatch, N, tau, cap,
                                            failures):
        if cap is not None:
            monkeypatch.setattr(cli, "WP_MAGNITUDE_CAP", cap)
        calls = _spy_on_draws(monkeypatch)
        rep = run_suites(site_dim=N, tau=tau)
        assert max(len(rngs) for _, rngs, _, _, _ in calls) > 10
        for sampler, rngs, args, out, after in calls:
            lat, *rest, per_stream = args
            for k, rng in enumerate(rngs):
                (lone,) = sampler([rng], lat, *rest, [per_stream[k]])
                assert _outcome(lone) == _outcome(out[k])
                # and the stream is left where the lone draw leaves it
                assert rng.bit_generator.state == after[k]
        failed = [r["reason"] for r in rep["records"] if r["passed"] is False]
        assert len(failed) == failures
        assert all("sampling failed" in reason for reason in failed)

    @pytest.mark.parametrize("kind", ["rational", "elliptic"])
    def test_a_screen_error_fails_its_own_case(self, monkeypatch, kind):
        rep = run_suites(suite="rmatrix-basic", kind=kind, samples=2)
        target = "rmatrix-basic/" + kind + "/qybe/s1"
        h = next(r["params"]["hbar"] for r in rep["records"]
                 if r["case_id"] == target)
        bad = 2 * complex(h["re"], h["im"])
        wp = cli._wp

        def raising(lat, z, orders):
            if np.any(np.asarray(z) == bad):
                raise SeriesNotConverged("forced")
            return wp(lat, z, orders)

        monkeypatch.setattr(cli, "_wp", raising)
        forced = run_suites(suite="rmatrix-basic", kind=kind, samples=2)
        for a, b in zip(rep["records"], forced["records"]):
            if a["case_id"] == target:
                assert (b["passed"], b["reason"]) == (
                    False, "SeriesNotConverged: forced")
            else:
                assert a == b

    def test_a_refused_second_draw_is_drawn_again(self, monkeypatch):
        # the spec refuses hbar - eta for the first eta of one AYBE case: the
        # case takes the next eta of its stream, as a lone redraw does
        target, opts = "rmatrix-basic/elliptic/aybe/s1", dict(
            suite="rmatrix-basic", kind="elliptic", samples=2)
        rng = np.random.default_rng([12345, zlib.crc32(target.encode())])
        lat = rmx.LatticeParams("elliptic", 1j)
        cli._sample_points([rng], lat, [3])
        (hbar,), (first,), (second,) = (cli._sample_hbar([rng], lat, 2, [0]) for _ in range(3))
        base = run_suites(**opts)["records"]
        validate, refused = rmatrix.RMatrixSpec.validate_hbar, []

        def refusing(spec, value):
            if np.ndim(value) == 0 and value == hbar - first and not refused:
                refused.append(value)
                raise rmx.PoleProximity("forced")
            return validate(spec, value)

        monkeypatch.setattr(rmatrix.RMatrixSpec, "validate_hbar", refusing)
        forced = run_suites(**opts)["records"]
        assert refused
        for a, b in zip(base, forced):
            if a["case_id"] == target:
                assert a["params"]["eta"] == cli._c2d(first)
                assert b["params"]["eta"] == cli._c2d(second) and b["passed"]
            else:
                assert a == b

    def test_default_sweep_draws_are_pinned(self):
        # the inputs every case drew, whatever its check made of them
        records = run_suites()["records"]
        params = json.dumps([(r["case_id"], r["params"]) for r in records],
                            sort_keys=True)
        assert hashlib.sha256(params.encode()).hexdigest() == (
            "7d40fb28f108d382ba69e22f27f734b5bf09662403acaa795d7e7299890442a1")


def same_records(got, want):
    """Equal records, except that the residual and details of an elliptic
    record may differ by the round-off of the wp values that a batch shares
    (``dense_oracle.round_off_equal``)."""
    def rest(record):
        return {k: v for k, v in record.items() if k not in ("residual", "details")}
    return len(got) == len(want) and all(
        a == b if a["kind"] != "elliptic" else rest(a) == rest(b) and round_off_equal(
            {k: a[k] for k in ("residual", "details")},
            {k: b[k] for k in ("residual", "details")}) for a, b in zip(got, want))


def lone_batch(requests):
    """check_cyclic_batch run on each request alone."""
    return [identities.check_cyclic_batch([request])[0] for request in requests]


class TestCyclicBatch:
    """A part runs its cyclic-sum cases as one batch; each record is the one
    its case gives alone."""

    def test_a_part_runs_one_dp_per_order(self, monkeypatch):
        runs = []
        run = tensor_ops._run
        monkeypatch.setattr(tensor_ops, "_run", lambda plan, slabs, x: runs.append(
            (plan.n, len(slabs))) or run(plan, slabs, x))
        run_suites(suite="nth-order", kind="elliptic", n_max=5, samples=2)
        # the sums of the two order-n samples and the n sums of outer-n
        assert runs == [(n, 2 + n) for n in (3, 4, 5)]

    def test_records_equal_lone_checks(self, monkeypatch):
        opts = dict(site_dim=3, n_max=5, samples=2)
        joint = run_suites(**opts)["records"]
        monkeypatch.setattr(cli, "check_cyclic_batch", lone_batch)
        assert same_records(run_suites(**opts)["records"], joint)

    @pytest.mark.parametrize("kind, case, how", [
        ("rational", "order-4/s1", "wp"), ("elliptic", "order-5/s2", "wp"),
        ("rational", "outer-5/s0", "points"), ("elliptic", "order-3/s0", "points")])
    def test_an_error_fails_its_own_case(self, monkeypatch, kind, case, how):
        opts = dict(suite="nth-order", kind=kind, n_max=5)
        base = run_suites(**opts)["records"]
        target = f"nth-order/{kind}/{case}"
        params = next(r["params"] for r in base if r["case_id"] == target)
        pts = [complex(p["re"], p["im"]) for p in params["points"]]
        hbar = complex(params["hbar"]["re"], params["hbar"]["im"])
        # wp at the case's N hbar, or the R-matrices at its points, raise:
        # wp(z, ...) and r_matrix(spec, z, ...)
        name, arg, bad = ("weierstrass_p", 0, 2 * hbar) if how == "wp" else (
            "r_matrix", 1, pts[0] - pts[1])
        original = getattr(identities, name)

        def raising(*args, **kwargs):
            if np.any(np.asarray(args[arg]) == bad):
                raise SeriesNotConverged("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(identities, name, raising)
        forced = run_suites(**opts)["records"]
        for a, b in zip(base, forced):
            if a["case_id"] == target:
                assert (b["passed"], b["reason"]) == (
                    False, "SeriesNotConverged: forced")
            else:
                assert same_records([a], [b])
        monkeypatch.setattr(cli, "check_cyclic_batch", lone_batch)
        assert json.dumps(run_suites(**opts)["records"]) == json.dumps(forced)


def _load_gate():
    """tools/records_gate.py, the records gate, as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "records_gate.py"
    spec = importlib.util.spec_from_file_location("records_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = _load_gate()

# the batch entries of the probed checks of the rmatrix-basic and
# applications parts, by their cli names, and the case types that request them
BATCH_ENTRIES = {
    "check_cyclic_batch": ("same-site", "unitarity"),
    "_skew_symmetry_batch": ("skew-symmetry",),
    "_qybe_batch": ("qybe",),
    "_aybe_batch": ("aybe",),
    "_classical_batch": ("classical",),
    "_deriv_hbar_batch": ("deriv-hbar",),
    "_trace_power_batch": ("trace-power-k2", "trace-power-k3"),
    "_kzb_batch": ("kzb-flatness",),
    "_hbar_order_batch": ("hbar-order",),
}


def run_alone(monkeypatch):
    """Make every batch entry run each of its requests alone."""
    for name in BATCH_ENTRIES:
        entry = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda requests, entry=entry: [
            entry([request])[0] for request in requests])


def assert_within_gate(records, lone):
    """Same cases, verdicts and reasons, and every residual within 10x of
    the lone one, both floored at eps."""
    lines, trips = GATE.compare([["part", 0, records]], [["part", 0, lone]])
    assert not trips, "\n".join(lines)


class TestCheckBatches:
    """A part runs each probed check's samples as one batch; each record is
    the one its case gives alone, within the records gate."""

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("kind", ["rational", "elliptic"])
    @pytest.mark.parametrize("suite", ["rmatrix-basic", "applications"])
    def test_records_equal_lone_checks(self, monkeypatch, suite, kind, N):
        opts = dict(suite=suite, kind=kind, site_dim=N)
        joint = run_suites(**opts)["records"]
        run_alone(monkeypatch)
        lone = run_suites(**opts)["records"]
        assert_within_gate(joint, lone)
        assert all(r["passed"] for r in joint)

    @pytest.mark.parametrize("kind", ["rational", "elliptic"])
    def test_a_part_calls_each_entry_once(self, monkeypatch, kind):
        calls, runs = [], []
        for name in BATCH_ENTRIES:
            entry = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda requests, name=name, entry=entry: (
                calls.append((name, len(requests))) or entry(requests)))
        run = tensor_ops._run
        monkeypatch.setattr(tensor_ops, "_run", lambda plan, slabs, x: (
            runs.append(len(slabs)) or run(plan, slabs, x)))
        for suite in ("rmatrix-basic", "applications"):
            run_suites(suite=suite, kind=kind, samples=4)
        # four samples of each case type; trace-power has two
        assert sorted(calls) == sorted((name, 4 * len(types))
                                       for name, types in BATCH_ENTRIES.items())
        # one plan run for the samples of unitarity, skew-symmetry, qybe,
        # aybe, deriv-hbar, each trace power, kzb-flatness and hbar-order
        assert sorted(runs) == sorted([4, 4, 4, 4, 4, 12, 12, 4, 4])

    @pytest.mark.parametrize("kind", ["rational", "elliptic"])
    def test_one_factor_build_per_cyclic_batch(self, monkeypatch, kind):
        # the same-site (n = 1) and unitarity (n = 2) samples of a part are
        # one cyclic batch, whose unitarity factors take one r_matrix call
        builds, batches = [], []
        build, entry = identities.r_matrix, cli.check_cyclic_batch
        monkeypatch.setattr(identities, "r_matrix", lambda spec, z, hbar=None: (
            builds.append(np.shape(z)) or build(spec, z, hbar)))

        def spy(requests):
            start = len(builds)
            out = entry(requests)
            batches.append((sorted(request[1] for request in requests), builds[start:]))
            return out

        monkeypatch.setattr(cli, "check_cyclic_batch", spy)
        run_suites(suite="rmatrix-basic", kind=kind, samples=4)
        assert batches == [([1] * 4 + [2] * 4, [(4, 2)])]

    def test_a_ladder_builds_its_factors_once_per_order(self, monkeypatch):
        # the order-n and outer-n cases of each n share one r_matrix call
        builds, build = [], identities.r_matrix
        monkeypatch.setattr(identities, "r_matrix", lambda spec, z, hbar=None: (
            builds.append(np.shape(z)) or build(spec, z, hbar)))
        rep = run_suites(suite="nth-order", kind="elliptic", site_dim=2, n_max=7, samples=1)
        assert rep["summary"]["executed"] == 10
        assert builds == [(2, n * (n - 1)) for n in range(3, 8)]

    @pytest.mark.parametrize("kind", ["rational", "elliptic"])
    @pytest.mark.parametrize("case, module, name", [
        ("rmatrix-basic/{}/unitarity/s1", identities, "r_matrix"),
        ("rmatrix-basic/{}/skew-symmetry/s2", identities, "r_matrix"),
        ("rmatrix-basic/{}/qybe/s0", identities, "r_matrix"),
        ("rmatrix-basic/{}/aybe/s1", identities, "r_matrix"),
        ("rmatrix-basic/{}/classical/s1", rmatrix, "r_matrix"),
        ("rmatrix-basic/{}/deriv-hbar/s2", rmatrix, "r_matrix"),
        ("applications/{}/trace-power-k3/s1", applications, "r_matrix"),
        ("applications/{}/kzb-flatness/s2", applications, "r_matrix"),
        ("applications/{}/hbar-order/s0", applications, "classical_closed_form")])
    def test_an_error_fails_its_own_case(self, monkeypatch, kind, case, module,
                                         name):
        suite, target = case.split("/")[0], case.format(kind)
        base = run_suites(suite=suite, kind=kind)["records"]
        params = next(r["params"] for r in base if r["case_id"] == target)
        values = {key: complex(v["re"], v["im"]) for key, v in params.items()
                  if key in ("z", "z_a", "z_b", "hbar")}
        pts = [complex(p["re"], p["im"]) for p in params.get("points", [])]
        original = getattr(module, name)

        # the factor build, r_matrix(spec, z, hbar) or classical_closed_form(
        # spec, z), raises on the case's z, its first pair difference, or, for
        # trace-power, whose records keep no points, its hbar
        if "trace-power" in case:
            def hit(spec, z, hbar=None):
                return np.any(np.asarray(spec.hbar if hbar is None else hbar)
                              == values["hbar"])
        else:
            if "z" in values:
                bad = values["z"]
            else:
                z_a, z_b = (values["z_a"], values["z_b"]) if "z_a" in values else pts[:2]
                bad = z_a - z_b

            def hit(spec, z, *rest):
                return np.any(np.asarray(z) == bad)

        def raising(*args, **kwargs):
            if hit(*args, **kwargs):
                raise SeriesNotConverged("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, raising)
        forced = run_suites(suite=suite, kind=kind)["records"]
        for a, b in zip(base, forced):
            if a["case_id"] == target:
                assert (b["passed"], b["reason"]) == (
                    False, "SeriesNotConverged: forced")
        assert_within_gate([r for r in forced if r["case_id"] != target],
                           [r for r in base if r["case_id"] != target])
        # the error is the one the case meets alone
        run_alone(monkeypatch)
        alone = run_suites(suite=suite, kind=kind)["records"]
        assert_within_gate(forced, alone)


class TestMain:
    def test_pass_run_and_report_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["verify", "--suite", "scalar", "--samples", "1",
                     "--n-max", "3", "--report", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert " 0 failed" in out
        data = json.loads(out_file.read_text())
        assert data["schema_version"] == 1
        assert data["summary"]["failed"] == 0

    def test_tol_flag_forces_failure_exit(self, capsys):
        code = main(["verify", "--suite", "rmatrix-basic", "--kind",
                     "rational", "--samples", "1", "--n-max", "3",
                     "--tol.unitarity", "1e-30"])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_usage_errors_exit_two(self, capsys):
        assert main(["verify", "--n-max", "1"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["verify", "--n-max", "9", "--N", "3"]) == 2
        assert "budget" in capsys.readouterr().err
        assert main(["verify", "--budget", "nan"]) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--tau", "nan+1i"], "tau must be finite"),
        (["--tau", "0.3+1e400i"], "tau must be finite"),
        (["--hbar", "nan"], "hbar must be finite"),
        (["--hbar", "1e400+0.2i"], "hbar must be finite"),
        (["--tol.qybe", "nan"], "tol.qybe must be finite"),
        (["--tol.nth-order", "1e400"], "tol.nth-order must be finite"),
        (["--tol.qybe", "0"], "tol.qybe must be positive"),
        (["--tol.fay=-1e-9"], "tol.fay must be positive"),
        # the i of inf is not the imaginary unit
        (["--tau", "0.3+infi"], "tau must be finite"),
        (["--hbar", "inf"], "hbar must be finite")])
    def test_unusable_numbers_exit_two_before_any_case(self, monkeypatch, capsys,
                                                       flags, message):
        cases = []
        monkeypatch.setattr(cli, "_run_case", lambda *a: cases.append(a))
        assert main(["verify"] + flags) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {message}, got ")
        assert out == "" and cases == []

    @pytest.mark.parametrize("kind", ["all", "elliptic"])
    def test_tau_past_the_theta_range_exits_two_before_any_case(self, monkeypatch,
                                                                capsys, kind):
        # theta underflows above Im(tau) = 433: every elliptic case would fail
        cases = []
        monkeypatch.setattr(cli, "_run_case", lambda *a: cases.append(a))
        assert main(["verify", "--kind", kind, "--tau", "500i"]) == 2
        out, err = capsys.readouterr()
        assert err == ("error: tau must have imaginary part at most 433 for the "
                       "elliptic kind, where theta underflows, got 500j\n")
        assert out == "" and cases == []
        with pytest.raises(UsageError, match="at most 433"):
            run_suites(kind=kind, tau=500j)

    @pytest.mark.parametrize("kind", ["rational", "trigonometric"])
    def test_kinds_without_theta_take_any_tau(self, capsys, kind):
        assert main(["verify", "--kind", kind, "--tau", "500i"]) == 0
        assert " 0 failed" in capsys.readouterr().out

    def test_tau_help_states_the_range(self):
        _, verify = cli._build_parser()
        (tau,) = [a for a in verify._actions if a.dest == "tau"]
        assert "Im(tau) > 0, and at most 433 for the elliptic kind" in tau.help

    def test_unwritable_report_exits_two(self, monkeypatch, tmp_path, capsys):
        # a path in a missing directory, a directory and an empty path are
        # refused before any case runs
        cases = []
        monkeypatch.setattr(cli, "_run_case", lambda *a: cases.append(a))
        for path in (tmp_path / "missing" / "r.json", tmp_path, ""):
            code = main(["verify", "--suite", "scalar", "--samples", "1",
                         "--n-max", "3", "--report", str(path)])
            assert code == 2
            out, err = capsys.readouterr()
            assert out == "" and cases == []
            assert err.startswith(f"error: cannot write report {path}: ")
        assert not (tmp_path / "missing").exists()

    def test_refused_run_leaves_the_report_file_unchanged(self, tmp_path, capsys):
        # the report path is checked without creating or truncating the file
        path = tmp_path / "r.json"
        path.write_text("earlier report\n")
        for flags in (["--n-max", "9", "--N", "3"], ["--budget", "1"]):
            assert main(["verify", "--report", str(path)] + flags) == 2
            out, err = capsys.readouterr()
            assert out == "" and "budget" in err
            assert path.read_text() == "earlier report\n"
        new = tmp_path / "new.json"
        assert main(["verify", "--report", str(new), "--budget", "1"]) == 2
        assert not new.exists()

    def test_config_file_defaults_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "suite = rmatrix-basic\n"
            "kind = rational\n"
            "samples = 1\n"
            "n-max = 3\n"
            "deterministic = false\n"
            "budget = 5e9\n"
            "tau = 0.1+1.2i\n"
        )
        out_file = tmp_path / "r1.json"
        code = main(["verify", "--config", str(cfg), "--report", str(out_file)])
        assert code == 0
        config = json.loads(out_file.read_text())["config"]
        assert config["kind"] == "rational"
        assert config["deterministic"] is False
        assert config["budget"] == 5e9
        assert config["tau"] == {"re": 0.1, "im": 1.2}

        out_file2 = tmp_path / "r2.json"
        code = main(["verify", "--config", str(cfg), "--kind", "elliptic",
                     "--deterministic", "--budget", "2e9",
                     "--report", str(out_file2)])
        assert code == 0
        config = json.loads(out_file2.read_text())["config"]
        assert config["kind"] == "elliptic"
        assert config["deterministic"] is True
        assert config["seed"] == 12345
        assert config["budget"] == 2e9
        assert config["tau"] == {"re": 0.1, "im": 1.2}
        capsys.readouterr()

    def test_config_file_tolerance_override(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(
            "suite = rmatrix-basic\nkind = rational\nsamples = 1\n"
            "n-max = 3\ntol.unitarity = 1e-30\n"
        )
        assert main(["verify", "--config", str(cfg)]) == 1
        capsys.readouterr()

    def test_bad_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        for key, value in (("bogus", "3"), ("parallel", "true"),
                           ("size-cap", "64")):
            cfg.write_text(f"{key} = {value}\n")
            assert main(["verify", "--config", str(cfg)]) == 2
            assert key in capsys.readouterr().err

    def test_skip_lines_are_printed(self, capsys):
        code = main(["verify", "--suite", "applications", "--kind",
                     "trigonometric", "--samples", "1", "--n-max", "3"])
        assert code == 0
        assert "[SKIP]" in capsys.readouterr().out


class TestModuleEntry:
    """``python -m rmx`` runs ``cli.main`` and exits with its code."""

    @staticmethod
    def run(*args):
        src = str(Path(rmx.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else os.pathsep.join([src, path]))
        return subprocess.run([sys.executable, "-m", "rmx", "verify", *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_passing_sweep_exits_zero(self):
        proc = self.run("--suite", "scalar", "--kind", "rational",
                        "--samples", "1")
        assert proc.returncode == 0, proc.stderr
        assert " 0 failed" in proc.stdout

    def test_removed_flag_exits_two(self):
        proc = self.run("--size-cap", "64")
        assert proc.returncode == 2
        assert "--size-cap" in proc.stderr

    def test_size_cap_exits_two_before_any_record(self, tmp_path):
        out_file = tmp_path / "report.json"
        proc = self.run("--suite", "nth-order", "--kind", "elliptic",
                        "--N", "3", "--n-max", "8", "--report", str(out_file))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "SizeCapExceeded" in proc.stderr and "4096" in proc.stderr
        assert not out_file.exists()


class TestComplexParsing:
    def test_accepts_i_suffix(self):
        assert _parse_complex("0.2+1.3i") == complex(0.2, 1.3)
        assert _parse_complex("2i") == 2j
        assert _parse_complex("-0.4") == complex(-0.4, 0)

    def test_inf_keeps_its_i(self):
        assert _parse_complex("0.3+infi") == complex(0.3, math.inf)
        assert _parse_complex("inf") == complex(math.inf, 0)
        assert _parse_complex("-Infinity-2i") == complex(-math.inf, -2)

    def test_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_complex("half past three")
