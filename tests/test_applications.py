import math
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from rmx import applications, identities, rmatrix, tensor_ops
from rmx import (
    CalogeroConfig,
    ContourHitsPole,
    DimensionMismatch,
    LatticeParams,
    QuadratureNotConverged,
    RMatrixSpec,
    SeriesNotConverged,
    SizeCapExceeded,
    UsageError,
    check_aybe,
    check_hbar_order_relation,
    check_kzb_flatness,
    check_qybe,
    check_skew_symmetry,
    check_trace_power_guess,
    check_unitarity,
    classical_closed_form,
    classical_expansion,
    frobenius_distance,
    is_scalar_operator,
    lax_krichever,
    r_deriv_hbar,
    r_matrix,
)

from dense_oracle import (
    aybe_sides,
    block_matrix_power,
    hbar_derivative_sides,
    hbar_order_sides,
    kzb_flatness_sides,
    lax_rmatrix,
    qybe_sides,
    skew_symmetry_sides,
    unitarity_product,
)

RA = LatticeParams(kind="rational")
EL = LatticeParams(kind="elliptic", tau=1j)

EL_PTS_3 = [0.31 + 0.11j, 0.62 + 0.29j, 0.18 + 0.41j]
EL_PTS_4 = EL_PTS_3 + [0.47 + 0.23j]
EL_PTS_6 = EL_PTS_4 + [0.83 + 0.07j, 0.57 + 0.38j]
YANG_PTS_3 = [0.3, 1.1 + 0.4j, 2.2 - 0.3j]
YANG_PTS_4 = YANG_PTS_3 + [0.7 + 1.1j]
YANG_PTS_6 = YANG_PTS_4 + [1.7 + 0.8j, -0.4 + 0.6j]

MOMENTA = (0.21 - 0.11j, -0.34 + 0.07j, 0.55 + 0.19j, -0.12 + 0.31j,
           0.43 - 0.26j, -0.27 - 0.18j)


def yang_spec(N=2, hbar=0.7 + 0.3j):
    return RMatrixSpec(kind="yang", site_dim=N, lattice=RA, hbar=hbar)


def belavin_spec(N=2, hbar=0.17 + 0.09j):
    return RMatrixSpec(kind="belavin", site_dim=N, lattice=EL, hbar=hbar)


def make_config(spec, n, coupling=0.8 - 0.2j):
    pts = YANG_PTS_6 if spec.lattice.kind.value == "rational" else EL_PTS_6
    return CalogeroConfig(
        rspec=spec,
        momenta=MOMENTA[:n],
        positions=tuple(pts[:n]),
        coupling=coupling,
    )


class TestLaxBlocks:
    """The dense block Lax operator of the oracle, and the check's inputs."""

    def test_zero_coupling_is_diagonal(self):
        cfg = make_config(yang_spec(2), 3, coupling=0.0)
        blocks = lax_rmatrix(cfg)
        assert blocks.shape == (3, 3, 8, 8)
        for a in range(3):
            for b in range(3):
                if a == b:
                    assert np.array_equal(blocks[a, a],
                                          MOMENTA[a] * np.eye(8))
                else:
                    assert np.all(blocks[a, b] == 0)

    def test_rank_one_blocks_match_scalar_lax(self):
        spec = RMatrixSpec(kind="belavin", site_dim=1, lattice=EL,
                           hbar=0.21 + 0.13j)
        cfg = make_config(spec, 3)
        blocks = lax_rmatrix(cfg)
        scal = lax_krichever(cfg)
        assert blocks.shape == (3, 3, 1, 1)
        assert np.max(np.abs(blocks[:, :, 0, 0] - scal)) < 1e-13

    def test_block_skew_under_parameter_flip(self):
        spec = belavin_spec(2)
        flipped = belavin_spec(2, hbar=-spec.hbar)
        cfg = make_config(spec, 3, coupling=1.0)
        cfg_f = make_config(flipped, 3, coupling=1.0)
        b = lax_rmatrix(cfg)
        bf = lax_rmatrix(cfg_f)
        for a in range(3):
            for c in range(3):
                if a != c:
                    assert np.allclose(b[a, c], -bf[c, a], rtol=0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(DimensionMismatch):
            CalogeroConfig(rspec=yang_spec(), momenta=(0.1, 0.2),
                           positions=(0.3,))
        with pytest.raises(UsageError):
            CalogeroConfig(rspec=yang_spec(), momenta=(0.1,), positions=(0.3,))
        # a non-finite momentum or coupling would reach the Lax matrix silently
        for bad in (np.nan, np.inf, complex(0.2, -np.inf)):
            with pytest.raises(SeriesNotConverged, match="finite momenta"):
                CalogeroConfig(rspec=yang_spec(), momenta=(0.1, bad), positions=(0.3, 1.1))
            with pytest.raises(SeriesNotConverged, match="finite coupling"):
                CalogeroConfig(rspec=yang_spec(), momenta=(0.1, 0.2),
                               positions=(0.3, 1.1), coupling=bad)

    def test_power_validation(self):
        cfg = make_config(yang_spec(2), 2)
        for power in (0, -1):
            with pytest.raises(UsageError, match=">= 1"):
                check_trace_power_guess(cfg, power)

    def test_power_must_be_an_integer(self):
        cfg = make_config(yang_spec(2), 2)
        for power in (2.0, "2", None):
            with pytest.raises(UsageError, match="integer"):
                check_trace_power_guess(cfg, power)
        assert check_trace_power_guess(cfg, np.int64(2)).passed


class TestTracePowers:
    def test_elliptic_families(self):
        for N in (2, 3):
            spec = belavin_spec(N)
            for n, k in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
                rep = check_trace_power_guess(make_config(spec, n), k)
                assert rep.passed, (N, n, k, rep.residual)
                assert rep.residual < 1e-9
                assert rep.details["trace_residual"] < 1e-12
                assert rep.details["extended_guess"] == (k < n)

    def test_elliptic_four_particles(self):
        rep = check_trace_power_guess(make_config(belavin_spec(2), 4), 4)
        assert rep.passed
        assert rep.residual < 1e-9
        assert not rep.details["extended_guess"]

    def test_yang(self):
        spec = yang_spec(2)
        for n, k in ((3, 2), (3, 3)):
            rep = check_trace_power_guess(make_config(spec, n), k)
            assert rep.passed
            assert rep.residual < 1e-13
            assert rep.details["trace_residual"] < 1e-12

    def test_zero_coupling_coefficients_are_momentum_powers(self):
        cfg = make_config(yang_spec(2), 3, coupling=0.0)
        rep = check_trace_power_guess(cfg, 2)
        assert rep.passed
        for c, p in zip(rep.details["coefficients"], MOMENTA):
            assert abs(c - p * p) < 1e-14


class TestKzbFlatness:
    def test_yang(self):
        rep = check_kzb_flatness(yang_spec(2), YANG_PTS_3)
        assert rep.passed
        assert rep.residual < 5e-13
        rep = check_kzb_flatness(yang_spec(2), YANG_PTS_3, use_closed_form=True)
        assert rep.residual < 1e-13

    def test_elliptic_default_quadrature(self):
        for N in (2, 3):
            rep = check_kzb_flatness(belavin_spec(N), EL_PTS_3)
            assert rep.passed
            assert rep.residual < 1e-9
            assert rep.details["quadrature_points"] == 32

    def test_default_radius_scales_with_N(self):
        # on the dense lattice tau = 1 + 0.1i the nearest hbar pole at N = 4
        # is 0.1 / 4 = 0.025 away, where the default radius was before it
        # took N into account; at N = 16 the flatness check would form dense
        # 4096 x 4096 three-site products, so N = 4 stands in for it here
        lat = LatticeParams(kind="elliptic", tau=1 + 0.1j)
        spec = RMatrixSpec(kind="belavin", site_dim=4, lattice=lat,
                           hbar=0.011 + 0.003j)
        with pytest.raises(ContourHitsPole):
            check_kzb_flatness(spec, EL_PTS_3, contour_radius=0.025)
        rep = check_kzb_flatness(spec, EL_PTS_3)
        assert rep.passed
        assert rep.residual < 1e-11

    def test_elliptic_closed_form(self):
        rep = check_kzb_flatness(belavin_spec(2), EL_PTS_3,
                                 use_closed_form=True)
        assert rep.residual < 1e-12

    def test_quadrature_error_decreases_with_nodes(self):
        spec = belavin_spec(2)
        resid = {
            k: check_kzb_flatness(spec, EL_PTS_3, quadrature_points=k).residual
            for k in (3, 8, 32)
        }
        assert resid[3] > 10 * resid[8]
        assert resid[8] > resid[32]
        assert resid[32] < 1e-9

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            check_kzb_flatness(yang_spec(2), YANG_PTS_4)
        with pytest.raises(QuadratureNotConverged):
            check_kzb_flatness(yang_spec(2), YANG_PTS_3, quadrature_points=1)
        with pytest.raises(UsageError, match="^quadrature_points must be an integer"):
            check_kzb_flatness(yang_spec(2), YANG_PTS_3, quadrature_points=2.5)

    @pytest.mark.parametrize("radius", [0.45, 0.6, 0.0, -0.1])
    def test_contour_guards(self, radius):
        # at N = 2, tau = i the nearest hbar pole besides 0 is 1/2 away; the
        # flatness contour and classical_expansion refuse the same radii
        spec = belavin_spec(2)
        with pytest.raises(ContourHitsPole):
            check_kzb_flatness(spec, EL_PTS_3, contour_radius=radius)
        with pytest.raises(ContourHitsPole):
            classical_expansion(spec, EL_PTS_3[0], contour_radius=radius)
        if radius <= 0:
            with pytest.raises(ContourHitsPole):
                check_kzb_flatness(yang_spec(2), YANG_PTS_3, contour_radius=radius)

    @pytest.mark.parametrize("radius, error", [
        (0.1j, UsageError), ("0.1", UsageError), (np.array([0.1]), UsageError),
        (np.nan, ContourHitsPole), (np.inf, ContourHitsPole)])
    @pytest.mark.parametrize("family", ["yang", "belavin"])
    def test_contour_radius_is_validated(self, radius, error, family):
        # a typed error naming the radius, with no numpy warning before it
        spec, pts = ((yang_spec(2), YANG_PTS_3) if family == "yang"
                     else (belavin_spec(2), EL_PTS_3))
        match = "contour_radius must be a real" if error is UsageError else "(0, inf)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=re.escape(match)):
                check_kzb_flatness(spec, pts, contour_radius=radius)
            with pytest.raises(error, match=re.escape(match)):
                classical_expansion(spec, pts[0], contour_radius=radius)


class TestHbarOrderRelation:
    def test_yang_three_sites_vanishes(self):
        rep = check_hbar_order_relation(yang_spec(2), 3, YANG_PTS_3)
        assert rep.passed
        assert rep.residual < 1e-13
        # pair differences sum to zero around the triangle, so both sides
        # cancel on their own
        assert rep.details["rhs_norm"] < 1e-10 * (1 + rep.details["lhs_norm"])

    def test_yang_four_sites(self):
        rep = check_hbar_order_relation(yang_spec(2), 4, YANG_PTS_4)
        assert rep.passed
        assert rep.residual < 1e-13

    def test_argument_screen(self):
        spec = yang_spec(2)
        with pytest.raises(UsageError, match="^n must be an integer, got 3.0"):
            check_hbar_order_relation(spec, 3.0, YANG_PTS_3)
        with pytest.raises(DimensionMismatch, match="n >= 3"):
            check_hbar_order_relation(spec, 2, YANG_PTS_3[:2])
        with pytest.raises(DimensionMismatch, match="expected 4 points"):
            check_hbar_order_relation(spec, 4, YANG_PTS_3)
        # numpy integers are integers
        assert check_hbar_order_relation(spec, np.int64(3), YANG_PTS_3).passed

    def test_elliptic(self):
        spec = belavin_spec(2)
        for n, pts in ((3, EL_PTS_3), (4, EL_PTS_4)):
            rep = check_hbar_order_relation(spec, n, pts)
            assert rep.passed
            assert rep.residual < 1e-9
            assert rep.details["lhs_norm"] >= 0.0

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            check_hbar_order_relation(yang_spec(2), 2, YANG_PTS_3[:2])
        with pytest.raises(DimensionMismatch):
            check_hbar_order_relation(yang_spec(2), 3, YANG_PTS_4)


FAMILIES = [yang_spec, belavin_spec]


class TestComplexArguments:
    """An array where a complex number belongs is a DimensionMismatch that
    names its shape."""

    @pytest.mark.parametrize("call, name", [
        (lambda: check_kzb_flatness(belavin_spec(), [np.array([0.3, 0.4])] + EL_PTS_3[1:]),
         "a point"),
        (lambda: check_hbar_order_relation(yang_spec(), 3,
                                           YANG_PTS_3[:2] + [np.array([0.3, 0.4])]),
         "a point"),
        (lambda: CalogeroConfig(rspec=yang_spec(), momenta=MOMENTA[:3],
                                positions=(0.3, np.array([0.3, 0.4]), 1.1)), "positions"),
    ], ids=["kzb-flatness", "hbar-order", "calogero-position"])
    def test_array_is_a_dimension_mismatch(self, call, name):
        with pytest.raises(DimensionMismatch, match=rf"^{name} must be a scalar, got shape \(2,\)"):
            call()


class TestProbedAgainstDenseOracle:
    """The probed checks against the dense block Lax powers and the dense
    sides of the r/m relation."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_power_coefficients(self, N, n):
        for family in FAMILIES:
            cfg = make_config(family(N), n)
            for k in (1, 2, 3, 4):
                blocks = block_matrix_power(lax_rmatrix(cfg), k)
                rep = check_trace_power_guess(cfg, k)
                assert rep.passed, (family.__name__, N, n, k, rep.residual)
                for a, got in enumerate(rep.details["coefficients"]):
                    want = np.trace(blocks[a, a]) / N ** n
                    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_hbar_order_sides(self, N, n):
        for family, pts in ((yang_spec, YANG_PTS_6), (belavin_spec, EL_PTS_6)):
            spec = family(N)
            lhs, rhs, r_scale = hbar_order_sides(spec, n, pts[:n])
            x = applications._probe_block(N ** n)
            rep = check_hbar_order_relation(spec, n, pts[:n])
            assert rep.passed
            scale = np.linalg.norm(rhs @ x) + 1.0
            assert abs(rep.details["lhs_norm"] - np.linalg.norm(lhs @ x)) <= 1e-12 * scale
            assert abs(rep.details["rhs_norm"] - np.linalg.norm(rhs @ x)) <= 1e-12 * scale
            # the dense relation holds on the whole space, not only on X
            assert np.linalg.norm(lhs - rhs) < rep.tolerance * max(
                1.0, np.linalg.norm(rhs), r_scale * r_scale)


def gaussian_probes(dim, seed):
    """A D x min(4, D) Gaussian block scaled to norm sqrt(D), like the
    package's own probe block but drawn from ``seed``."""
    x = np.random.default_rng([seed, dim]).standard_normal((dim, min(4, dim)))
    return x * np.sqrt(dim) / np.linalg.norm(x)


def nudge(op, eps):
    """op moved by eps relative, in a fixed random direction."""
    rng = np.random.default_rng(7)
    shift = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
    return op + eps * np.linalg.norm(op) / np.linalg.norm(shift) * shift


def nudged(build, i):
    """``build`` with the i-th factor along z of each call moved by 1e-6; a
    call may take its z as a row."""
    def moved(*args):
        ops = build(*args)
        ops[..., i, :, :] = nudge(ops[..., i, :, :], 1e-6)
        return ops
    return moved


def probed_ratios(monkeypatch, run, full):
    """The probed residual of ``run()`` over 50 probe blocks, each divided
    by the dense residual ``full``."""
    ratios = []
    for seed in range(50):
        for module in (applications, identities, tensor_ops):
            monkeypatch.setattr(module, "_probe_block",
                                lambda dim: gaussian_probes(dim, seed))
        ratios.append(run() / full)
    return ratios


class TestPerturbedResidualTracksTheDenseOne:
    """With one factor moved by 1e-6 the identities fail, and each probed
    residual must be within a factor 2 of the dense one."""

    @pytest.mark.parametrize("N, n, k", [(2, 4, 2), (3, 3, 2), (2, 5, 3)])
    def test_trace_power(self, monkeypatch, N, n, k):
        cfg = make_config(belavin_spec(N), n)
        pairs, diffs = identities._pair_differences(cfg.rspec, n, cfg.positions)
        # each build's R_12, in the pair order of _pair_differences, moved
        moved = nudged(r_matrix, pairs.index((1, 2)))
        blocks = block_matrix_power(lax_rmatrix(cfg, dict(zip(
            pairs, moved(cfg.rspec, diffs)))), k)
        full = max(is_scalar_operator(blocks[a, a])[2] for a in range(n))
        assert full > 1e-7  # the perturbation shows, not round-off
        monkeypatch.setattr(applications, "r_matrix", moved)
        ratios = probed_ratios(monkeypatch, lambda: check_trace_power_guess(
            cfg, k).details["nonscalar_residual"], full)
        assert 0.5 <= min(ratios) and max(ratios) <= 2

    @pytest.mark.parametrize("N, n", [(2, 4), (2, 5), (3, 4)])
    def test_hbar_order(self, monkeypatch, N, n):
        spec, pts = belavin_spec(N), EL_PTS_6[:n]

        def moved(*args):
            r, m = classical_closed_form(*args)
            r[..., 1, :, :] = nudge(r[..., 1, :, :], 1e-6)
            return r, m

        lhs, rhs, r_scale = hbar_order_sides(spec, n, pts, moved)
        full = np.linalg.norm(lhs - rhs) / max(
            1.0, np.linalg.norm(rhs), r_scale * r_scale)
        assert full > 1e-8
        monkeypatch.setattr(applications, "classical_closed_form", moved)
        ratios = probed_ratios(monkeypatch, lambda: check_hbar_order_relation(
            spec, n, pts).residual, full)
        assert 0.5 <= min(ratios) and max(ratios) <= 2

    @pytest.mark.parametrize("N", [3, 4])
    def test_unitarity(self, monkeypatch, N):
        # the residual of the dense product: its non-scalar part, or its
        # trace / N^2 against the expected coefficient.  At N = 2 the four
        # probe columns span all of D = 4, and over these 50 Gaussian blocks
        # the probed residual reads 0.26-1.6x the dense one
        spec, z = belavin_spec(N), 0.41 + 0.23j
        moved = nudged(r_matrix, 0)
        _, coeff, nonscalar = is_scalar_operator(unitarity_product(spec, z, moved))
        expected = check_unitarity(spec, z).details["expected"]
        full = max(nonscalar, abs(coeff - expected) / max(abs(expected), 1.0))
        assert full > 1e-8
        monkeypatch.setattr(identities, "r_matrix", moved)
        ratios = probed_ratios(monkeypatch,
                               lambda: check_unitarity(spec, z).residual, full)
        assert 0.5 <= min(ratios) and max(ratios) <= 2

    @pytest.mark.parametrize("N", [2, 3])
    def test_skew_symmetry(self, monkeypatch, N):
        spec, z = belavin_spec(N), 0.36 + 0.21j
        moved = nudged(r_matrix, 0)
        full = frobenius_distance(*skew_symmetry_sides(spec, z, moved))
        assert full > 1e-8
        monkeypatch.setattr(identities, "r_matrix", moved)
        ratios = probed_ratios(monkeypatch,
                               lambda: check_skew_symmetry(spec, z).residual, full)
        assert 0.5 <= min(ratios) and max(ratios) <= 2

    # the three-site checks apply both sides to the probe block through
    # a plan of tensor_ops

    @pytest.mark.parametrize("N", [2, 3])
    def test_qybe(self, monkeypatch, N):
        spec, pts = belavin_spec(N), EL_PTS_6[:3]
        moved = nudged(r_matrix, 1)
        full = frobenius_distance(*qybe_sides(spec, pts, moved))
        assert full > 1e-8
        monkeypatch.setattr(identities, "r_matrix", moved)
        ratios = probed_ratios(monkeypatch,
                               lambda: check_qybe(spec, pts).residual, full)
        assert 0.5 <= min(ratios) and max(ratios) <= 2

    @pytest.mark.parametrize("N", [2, 3])
    def test_aybe(self, monkeypatch, N):
        spec, pts, eta = belavin_spec(N), EL_PTS_6[:3], 0.07 + 0.04j
        moved = nudged(r_matrix, 3)
        full = frobenius_distance(*aybe_sides(spec, pts, eta, moved))
        assert full > 1e-8
        monkeypatch.setattr(identities, "r_matrix", moved)
        ratios = probed_ratios(monkeypatch,
                               lambda: check_aybe(spec, pts, eta).residual, full)
        assert 0.5 <= min(ratios) and max(ratios) <= 2

    @pytest.mark.parametrize("N", [2, 3])
    def test_hbar_derivative(self, monkeypatch, N):
        spec, (za, zb, zc) = belavin_spec(N), EL_PTS_6[:3]
        moved = nudged(r_matrix, 0)
        full = frobenius_distance(*hbar_derivative_sides(spec, za, zb, zc, moved))
        assert full > 1e-8
        monkeypatch.setattr(rmatrix, "r_matrix", moved)
        ratios = probed_ratios(monkeypatch, lambda: r_deriv_hbar(
            spec, za, zb, aux_point=zc).structural_residual, full)
        assert 0.5 <= min(ratios) and max(ratios) <= 2

    @pytest.mark.parametrize("N", [2, 3])
    def test_kzb_flatness(self, monkeypatch, N):
        spec, pts = belavin_spec(N), EL_PTS_6[:3]

        def moved(*args):
            r, m = classical_closed_form(*args)
            m[2] = nudge(m[2], 1e-6)
            return r, m

        lhs, scale = kzb_flatness_sides(spec, pts, moved)
        full = np.linalg.norm(lhs) / scale
        assert full > 1e-8
        monkeypatch.setattr(applications, "classical_closed_form", moved)
        ratios = probed_ratios(monkeypatch, lambda: check_kzb_flatness(
            spec, pts, use_closed_form=True).residual, full)
        assert 0.5 <= min(ratios) and max(ratios) <= 2


class TestReach:
    """Sizes the dense block Lax, embedded r/m and dense three-site paths
    were too slow for."""

    def test_three_site_checks_at_N_16(self):
        # the dense products were 4096 x 4096 complex matrices, 268 MB each;
        # the probed ones are 4096 x 4 blocks
        code = textwrap.dedent("""
            import resource, sys
            sys.path.insert(0, sys.argv[1])
            from rmx import (LatticeParams, RMatrixSpec, check_aybe,
                             check_kzb_flatness, check_qybe, r_deriv_hbar)
            spec = RMatrixSpec(kind="yang", site_dim=16,
                               lattice=LatticeParams(kind="rational"),
                               hbar=0.7 + 0.3j)
            pts = [0.3, 1.1 + 0.4j, 2.2 - 0.3j]
            print(check_qybe(spec, pts).residual,
                  check_aybe(spec, pts, 0.4 - 0.1j).residual,
                  r_deriv_hbar(spec, pts[0], pts[1],
                               aux_point=pts[2]).structural_residual,
                  check_kzb_flatness(spec, pts, use_closed_form=True).residual,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """)
        src = str(Path(applications.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, timeout=120, check=True)
        *residuals, peak_kb = out.stdout.split()
        assert all(math.isfinite(float(r)) for r in residuals)
        assert len(residuals) == 4
        assert int(peak_kb) < 150 * 1024

    @pytest.mark.parametrize("family", FAMILIES)
    def test_hbar_order_ten_sites(self, family):
        pts = [0.1 + 0.07j * k + 0.13 * k for k in range(10)]
        rep = check_hbar_order_relation(family(2), 10, pts)
        assert rep.passed, rep.residual

    @pytest.mark.parametrize("N, n", [(2, 6), (3, 5)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_trace_powers(self, family, N, n):
        cfg = make_config(family(N), n)
        for k in range(2, n + 2):
            rep = check_trace_power_guess(cfg, k)
            assert rep.passed, (k, rep.residual)
            assert rep.details["extended_guess"] == (k < n)


def test_size_cap_raises_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(applications, "r_matrix",
                        lambda *a: calls.append(a) or r_matrix(*a))
    monkeypatch.setattr(applications, "classical_closed_form",
                        lambda *a: calls.append(a) or classical_closed_form(*a))
    # 5**6 = 15625 is above the cap 4096
    spec = yang_spec(5)
    with pytest.raises(SizeCapExceeded, match=r"5\*\*6 = 15625"):
        check_trace_power_guess(make_config(spec, 6), 2)
    with pytest.raises(SizeCapExceeded, match=r"5\*\*6 = 15625"):
        check_hbar_order_relation(spec, 6, YANG_PTS_6)
    assert calls == []
    # the same calls run at the cap, 4**6 = 4096
    spec = yang_spec(4)
    assert check_trace_power_guess(make_config(spec, 6), 2).passed
    assert check_hbar_order_relation(spec, 6, YANG_PTS_6).passed
    assert len(calls) == 2
