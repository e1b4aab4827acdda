import numpy as np
import pytest

from rmx import applications
from rmx import (
    CalogeroConfig,
    DimensionMismatch,
    LatticeParams,
    QuadratureNotConverged,
    RMatrixSpec,
    SizeCapExceeded,
    UsageError,
    block_matrix_power,
    check_hbar_order_relation,
    check_kzb_flatness,
    check_trace_power_guess,
    classical_closed_form,
    lax_krichever,
    lax_rmatrix,
    r_matrix,
)

RA = LatticeParams(kind="rational")
EL = LatticeParams(kind="elliptic", tau=1j)

EL_PTS_3 = [0.31 + 0.11j, 0.62 + 0.29j, 0.18 + 0.41j]
EL_PTS_4 = EL_PTS_3 + [0.47 + 0.23j]
YANG_PTS_3 = [0.3, 1.1 + 0.4j, 2.2 - 0.3j]
YANG_PTS_4 = YANG_PTS_3 + [0.7 + 1.1j]

MOMENTA = (0.21 - 0.11j, -0.34 + 0.07j, 0.55 + 0.19j, -0.12 + 0.31j)


def yang_spec(N=2, hbar=0.7 + 0.3j):
    return RMatrixSpec(kind="yang", site_dim=N, lattice=RA, hbar=hbar)


def belavin_spec(N=2, hbar=0.17 + 0.09j):
    return RMatrixSpec(kind="belavin", site_dim=N, lattice=EL, hbar=hbar)


def make_config(spec, n, coupling=0.8 - 0.2j):
    pts = YANG_PTS_4 if spec.lattice.kind.value == "rational" else EL_PTS_4
    return CalogeroConfig(
        rspec=spec,
        momenta=MOMENTA[:n],
        positions=tuple(pts[:n]),
        coupling=coupling,
    )


class TestLaxBlocks:
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

    def test_power_validation(self):
        cfg = make_config(yang_spec(2), 2)
        with pytest.raises(UsageError):
            block_matrix_power(lax_rmatrix(cfg), 0)


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


def test_size_cap_raises_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(applications, "r_matrix",
                        lambda *a: calls.append(a) or r_matrix(*a))
    monkeypatch.setattr(applications, "classical_closed_form",
                        lambda *a: calls.append(a) or classical_closed_form(*a))
    spec = yang_spec(3)
    cfg = make_config(spec, 4)
    with pytest.raises(SizeCapExceeded):
        lax_rmatrix(cfg, size_cap=80)
    with pytest.raises(SizeCapExceeded):
        check_trace_power_guess(cfg, 2, size_cap=80)
    with pytest.raises(SizeCapExceeded):
        check_hbar_order_relation(spec, 4, YANG_PTS_4, size_cap=80)
    assert calls == []
    # the same calls run at the cap N**n = 81
    assert lax_rmatrix(cfg, size_cap=81).shape == (4, 4, 81, 81)
    assert check_hbar_order_relation(spec, 4, YANG_PTS_4, size_cap=81).passed
