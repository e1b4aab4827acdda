import argparse
import json
import math
import re

import numpy as np
import pytest

from rmx import (
    BudgetExceeded,
    DimensionMismatch,
    UsageError,
    cli,
    cyclic_sum_cost,
    run_suites,
)
from rmx.cli import DEFAULT_BUDGET, _parse_complex, main


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
        rep = run_suites(kind="rational", samples=1, n_max=4,
                         tol_overrides={name: 0.0})
        assert rep["summary"]["executed"] == 20
        failed = {re.sub(r"\d+$", "", r["case_id"].split("/")[2])
                  for r in rep["records"] if r["passed"] is False}
        assert failed == set(TOLERANCE_CASES[name])
        assert rep["config"]["tol_overrides"] == {name: 0.0}

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
        with pytest.raises(BudgetExceeded):
            run_suites(site_dim=3, n_max=9)

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
        def refuse(*args, **kwargs):
            raise DimensionMismatch("refused")

        monkeypatch.setattr(cli, "check_unitarity", refuse)
        monkeypatch.setattr(cli, "check_nth_order", refuse)
        rep = run_suites(suite="rmatrix-basic", kind="rational", samples=1,
                         n_max=3)
        failed = {r["case_id"].split("/")[2]: r["n"]
                  for r in rep["records"] if r["reason"]}
        assert failed == {"same-site": 1, "unitarity": 2}

    def test_error_records_keep_family_and_sizes(self):
        rep = run_suites(suite="nth-order", kind="elliptic", site_dim=2,
                         n_max=3, samples=1, size_cap=4)
        assert rep["summary"]["failed"] == 2
        for r in rep["records"]:
            assert r["reason"].startswith("SizeCapExceeded")
            assert (r["family"], r["N"], r["n"]) == ("belavin", 2, 3)

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
                    dict(size_cap=0), dict(size_cap=1.0), dict(seed=-1),
                    dict(seed=1.5), dict(tol_overrides={"fay": "tight"})):
            with pytest.raises(UsageError):
                run_suites(suite="scalar", **bad)
        # complex() strings and numpy integers are accepted and echoed plainly
        rep = run_suites(suite="scalar", kind="rational", tau="1j", hbar="0.5+0.2j",
                         site_dim=np.int64(2), n_max=np.int32(2),
                         samples=np.int64(1), size_cap=np.int64(64))
        cfg = rep["config"]
        assert (cfg["tau"], cfg["hbar"]) == ({"re": 0.0, "im": 1.0},
                                             {"re": 0.5, "im": 0.2})
        assert [type(cfg[k]) for k in ("site_dim", "n_max", "samples",
                                       "size_cap")] == [int] * 4
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

    def test_config_file_defaults_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "suite = rmatrix-basic\n"
            "kind = rational\n"
            "samples = 1\n"
            "n-max = 3\n"
            "deterministic = false\n"
            "size-cap = 512\n"
            "tau = 0.1+1.2i\n"
        )
        out_file = tmp_path / "r1.json"
        code = main(["verify", "--config", str(cfg), "--report", str(out_file)])
        assert code == 0
        config = json.loads(out_file.read_text())["config"]
        assert config["kind"] == "rational"
        assert config["deterministic"] is False
        assert config["size_cap"] == 512
        assert config["tau"] == {"re": 0.1, "im": 1.2}

        out_file2 = tmp_path / "r2.json"
        code = main(["verify", "--config", str(cfg), "--kind", "elliptic",
                     "--deterministic", "--size-cap", "1024",
                     "--report", str(out_file2)])
        assert code == 0
        config = json.loads(out_file2.read_text())["config"]
        assert config["kind"] == "elliptic"
        assert config["deterministic"] is True
        assert config["seed"] == 12345
        assert config["size_cap"] == 1024
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
        for key, value in (("bogus", "3"), ("parallel", "true")):
            cfg.write_text(f"{key} = {value}\n")
            assert main(["verify", "--config", str(cfg)]) == 2
            assert key in capsys.readouterr().err

    def test_skip_lines_are_printed(self, capsys):
        code = main(["verify", "--suite", "applications", "--kind",
                     "trigonometric", "--samples", "1", "--n-max", "3"])
        assert code == 0
        assert "[SKIP]" in capsys.readouterr().out


class TestComplexParsing:
    def test_accepts_i_suffix(self):
        assert _parse_complex("0.2+1.3i") == complex(0.2, 1.3)
        assert _parse_complex("2i") == 2j
        assert _parse_complex("-0.4") == complex(-0.4, 0)

    def test_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_complex("half past three")
