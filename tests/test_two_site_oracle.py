"""The checks that apply two-site factors locally, against dense embeddings.

Each check applies its factors to a fixed probe block, as one plan of the
contraction code of ``rmx.tensor_ops`` (the three-site relations, the
subset DP of the n-th order sums, the block Lax powers, the r/m relation),
and never forms an embedded matrix.
Here every residual is rebuilt from the dense embeddings of
``dense_oracle`` and must agree to round-off.  The genuine
factors satisfy the identities, so both residuals would sit at round-off
and agree by accident; the factors are therefore shifted by a fixed
random two-site matrix, which breaks the identities and makes the
residuals of order one.  A second set of cases keeps the genuine factors
and moves one of them to the wrong sites: the check must then fail, so no
rewrite can leave a check that passes whatever it computes.
"""

import numpy as np
import pytest

from rmx import (
    CalogeroConfig,
    LatticeParams,
    RMatrixSpec,
    applications,
    check_aybe,
    check_hbar_order_relation,
    check_kzb_flatness,
    check_nth_order,
    check_outer_index_independence,
    check_qybe,
    check_skew_symmetry,
    check_trace_power_guess,
    check_unitarity,
    classical_closed_form,
    frobenius_distance,
    identities,
    r_deriv_hbar,
    r_matrix,
    rmatrix,
    tensor_ops,
)

from dense_oracle import (
    aybe_sides,
    block_matrix_power,
    hbar_derivative_sides,
    hbar_order_sides,
    kzb_flatness_sides,
    lax_rmatrix,
    probe_fit,
    qybe_sides,
    skew_symmetry_sides,
    unitarity_product,
)

RA = LatticeParams(kind="rational")
EL = LatticeParams(kind="elliptic", tau=1j)

YANG_PTS = [0.3, 1.1 + 0.4j, 2.2 - 0.3j, 0.7 + 1.1j]
EL_PTS = [0.31 + 0.11j, 0.62 + 0.29j, 0.18 + 0.41j, 0.47 + 0.23j]
MOMENTA = (0.21 - 0.11j, -0.34 + 0.07j, 0.55 + 0.19j)


def families(N):
    return [
        (RMatrixSpec(kind="yang", site_dim=N, lattice=RA, hbar=0.7 + 0.3j),
         YANG_PTS, 0.4 - 0.1j),
        (RMatrixSpec(kind="belavin", site_dim=N, lattice=EL, hbar=0.17 + 0.09j),
         EL_PTS, 0.07 + 0.04j),
    ]


CASES = [(N, spec, pts, eta) for N in (1, 2, 3) for spec, pts, eta in families(N)]
CASE_IDS = [f"{spec.kind.value}-N{N}" for N, spec, _, _ in CASES]


def shift(N, seed):
    rng = np.random.default_rng(seed + N)
    shape = (N * N, N * N)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def shifted(monkeypatch):
    """Shift r_matrix and classical_closed_form everywhere the checks and
    this module look them up; return the shifted versions."""

    def shifted_r(spec, z, hbar=None):
        return r_matrix(spec, z, hbar) + shift(spec.site_dim, 1)

    def shifted_classical(spec, z):
        r, m = classical_closed_form(spec, z)
        return r + shift(spec.site_dim, 2), m + shift(spec.site_dim, 3)

    for module in (identities, rmatrix, applications):
        monkeypatch.setattr(module, "r_matrix", shifted_r)
    for module in (rmatrix, applications):
        monkeypatch.setattr(module, "classical_closed_form", shifted_classical)
    return shifted_r, shifted_classical


def agree(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("N, spec, pts, eta", CASES, ids=CASE_IDS)
class TestResidualsMatchDenseFormulas:
    # the checks apply both sides to the probe block X; the dense sides are
    # multiplied by X the same way

    def test_unitarity(self, shifted, N, spec, pts, eta):
        # the order-2 sum's probed coefficient and non-scalar residual
        z = pts[0] - pts[1]
        x = tensor_ops._probe_block(N ** 2)
        coeff, nonscalar = probe_fit(x, unitarity_product(spec, z, shifted[0]) @ x)
        rep = check_unitarity(spec, z)
        assert agree(rep.details["coefficient"], coeff)
        assert agree(rep.details["nonscalar_residual"], nonscalar)

    def test_skew_symmetry(self, shifted, N, spec, pts, eta):
        lhs, rhs = skew_symmetry_sides(spec, pts[0] - pts[1], shifted[0])
        x = tensor_ops._probe_block(N ** 2)
        want = frobenius_distance(lhs @ x, rhs @ x)
        assert agree(check_skew_symmetry(spec, pts[0] - pts[1]).residual, want)

    def test_qybe(self, shifted, N, spec, pts, eta):
        lhs, rhs = qybe_sides(spec, pts[:3], shifted[0])
        x = tensor_ops._probe_block(N ** 3)
        want = frobenius_distance(lhs @ x, rhs @ x)
        assert agree(check_qybe(spec, pts[:3]).residual, want)

    def test_aybe(self, shifted, N, spec, pts, eta):
        lhs, rhs = aybe_sides(spec, pts[:3], eta, shifted[0])
        x = tensor_ops._probe_block(N ** 3)
        want = frobenius_distance(lhs @ x, rhs @ x)
        assert agree(check_aybe(spec, pts[:3], eta).residual, want)

    def test_hbar_derivative(self, shifted, N, spec, pts, eta):
        za, zb, zc = pts[:3]
        lhs, rhs = hbar_derivative_sides(spec, za, zb, zc, *shifted)
        x = tensor_ops._probe_block(N ** 3)
        want = frobenius_distance(lhs @ x, rhs @ x)
        out = r_deriv_hbar(spec, za, zb, aux_point=zc)
        assert agree(out.structural_residual, want)

    def test_kzb_flatness(self, shifted, N, spec, pts, eta):
        lhs, scale = kzb_flatness_sides(spec, pts[:3], shifted[1])
        x = tensor_ops._probe_block(N ** 3)
        want = np.linalg.norm(lhs @ x) / scale
        got = check_kzb_flatness(spec, pts[:3], use_closed_form=True).residual
        assert agree(got, want)

    @pytest.mark.parametrize("n", [3, 4])
    def test_hbar_order_relation(self, shifted, N, spec, pts, eta, n):
        # the check applies both sides to the probe block X; the scale is
        # taken on the embedded matrices
        lhs, rhs, r_scale = hbar_order_sides(spec, n, pts[:n], shifted[1])
        x = tensor_ops._probe_block(N ** n)
        scale = max(1.0, np.linalg.norm(rhs @ x), r_scale * r_scale)
        want = np.linalg.norm((lhs - rhs) @ x) / scale
        rep = check_hbar_order_relation(spec, n, pts[:n])
        assert agree(rep.residual, want)
        assert agree(rep.details["rhs_norm"], np.linalg.norm(rhs @ x))

    def test_lax_blocks(self, shifted, N, spec, pts, eta):
        # the check applies the block Lax operator to X in each slot; the
        # dense blocks of its powers give the same probed coefficients and
        # non-scalar residuals
        rr = shifted[0]
        n = 3
        cfg = CalogeroConfig(rspec=spec, momenta=MOMENTA, positions=pts[:n],
                             coupling=0.8 - 0.2j)
        factors = {(a, b): rr(spec, pts[a] - pts[b])
                   for a in range(n) for b in range(n) if a != b}
        x = tensor_ops._probe_block(N ** n)
        for k in (1, 2, 3):
            blocks = block_matrix_power(lax_rmatrix(cfg, factors), k)
            fits = [probe_fit(x, blocks[a, a] @ x) for a in range(n)]
            rep = check_trace_power_guess(cfg, k)
            for got, (want, _) in zip(rep.details["coefficients"], fits):
                assert agree(got, want)
            assert agree(rep.details["nonscalar_residual"],
                         max(resid for _, resid in fits))


def misroute_first_gather(monkeypatch):
    """Put one factor on the wrong sites: in the first factor gather of the
    contraction code (``tensor_ops._gather``), the last slab's factor of the
    plan's first key is replaced by its factor of the second key, which
    belongs on other sites (or, for a Lax power, is the R block in place of
    p Id).  The other slabs and keys are left as they are.  Every check
    runs its factors through that gather."""
    gather = tensor_ops._gather
    calls = []

    def wrong(slabs, plan):
        calls.append(plan)
        if len(calls) == 1:
            factors, a = slabs[-1]
            first, second = plan.keys[:2]
            assert plan.steps[0].factor == 0 and first[-2:] != second[-2:]
            slabs = slabs[:-1] + [([factors[1], *factors[1:]], a)]
        return gather(slabs, plan)

    monkeypatch.setattr(tensor_ops, "_gather", wrong)
    return calls


def belavin(N=2):
    return RMatrixSpec(kind="belavin", site_dim=N, lattice=EL, hbar=0.17 + 0.09j)


MISROUTED = {
    "qybe": lambda: check_qybe(belavin(), EL_PTS[:3]),
    "aybe": lambda: check_aybe(belavin(), EL_PTS[:3], 0.07 + 0.04j),
    # skew symmetry has no such case: its factors R(z, hbar) and
    # -R(-z, -hbar) are equal, and so are P R P and R for this family
    "unitarity": lambda: check_unitarity(belavin(), 0.41 + 0.23j),
    "nth-order": lambda: check_nth_order(belavin(), 4, EL_PTS),
    "outer-independence": lambda: check_outer_index_independence(belavin(), 4, EL_PTS),
    "kzb-flatness": lambda: check_kzb_flatness(belavin(), EL_PTS[:3],
                                               use_closed_form=True),
    "hbar-order": lambda: check_hbar_order_relation(belavin(), 4, EL_PTS),
    "trace-power": lambda: check_trace_power_guess(
        CalogeroConfig(rspec=belavin(), momenta=MOMENTA, positions=EL_PTS[:3]), 2),
}


@pytest.mark.parametrize("name", sorted(MISROUTED))
def test_check_fails_with_one_factor_on_wrong_sites(monkeypatch, name):
    run = MISROUTED[name]
    assert run().passed
    calls = misroute_first_gather(monkeypatch)
    rep = run()
    assert calls
    assert not rep.passed
    assert rep.residual > 1e3 * rep.tolerance


def test_hbar_derivative_fails_with_one_factor_on_wrong_sites(monkeypatch):
    args = (belavin(), 0.61 + 0.28j, 0.13 + 0.07j)
    assert r_deriv_hbar(*args).structural_residual < 1e-12
    calls = misroute_first_gather(monkeypatch)
    assert r_deriv_hbar(*args).structural_residual > 1e-3
    assert calls
