"""Acceptance sweep: every contract-level property at its stated tolerance.

Each test prints one [PASS]/[FAIL] line with the worst observed residual
and the wall time, so a full run reads as a checklist.
"""

import json
import math
import time

import numpy as np
import pytest

from rmx import (
    LatticeParams,
    RMatrixSpec,
    check_aybe,
    check_kzb_flatness,
    check_hbar_order_relation,
    check_nth_order,
    check_qybe,
    check_trace_power_guess,
    check_unitarity,
    classical_closed_form,
    classical_expansion,
    CalogeroConfig,
    kronecker_phi,
    permutation_operator,
    r_same_site,
    run_suites,
    same_site_closed_form,
    scalar_cyclic_sum,
    weierstrass_p,
)

from dense_oracle import cyclic_orderings

RA = LatticeParams(kind="rational")
TR = LatticeParams(kind="trigonometric")
EL = LatticeParams(kind="elliptic", tau=1j)
ELG = LatticeParams(kind="elliptic", tau=0.21 + 1.3j)


def draw_points(rng, lat, n, min_sep):
    for _ in range(200):
        if lat.kind.value == "elliptic":
            pts = rng.uniform(0.1, 0.9, n) + rng.uniform(0.05, 0.45, n) * lat.tau
        else:
            pts = rng.uniform(0.2, 3.0, n) + 1j * rng.uniform(0.1, 1.2, n)
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if lat.lattice_distance(pts[i] - pts[j]) < min_sep:
                    ok = False
        if ok:
            return [complex(p) for p in pts]
    raise AssertionError("point sampler starved")


def draw_eta(rng, lat):
    if lat.kind.value == "elliptic":
        return complex(rng.uniform(0.15, 0.45) + rng.uniform(0.1, 0.4) * lat.tau)
    return complex(rng.uniform(0.4, 1.2) + 1j * rng.uniform(0.1, 0.6))


def belavin(N, hbar, lattice=None):
    return RMatrixSpec(kind="belavin", site_dim=N,
                       lattice=lattice or EL, hbar=hbar)


def yang(N, hbar):
    return RMatrixSpec(kind="yang", site_dim=N, lattice=RA, hbar=hbar)


class TestAcceptance:
    @pytest.fixture(autouse=True)
    def _capture(self, capsys):
        self._capsys = capsys

    def announce(self, label, passed, detail, elapsed, bound=None):
        status = "PASS" if passed else "FAIL"
        tail = f"{elapsed:.2f}s" if bound is None else (
            f"{elapsed:.2f}s < {bound:g}s")
        with self._capsys.disabled():
            print(f"[{status}] {label}: {detail} [{tail}]", flush=True)

    def test_criterion_1_scalar_hierarchy(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1001)
        worst = {}
        for lat, bound in ((RA, 1e-10), (TR, 1e-10), (ELG, 1e-9)):
            sep = 0.08 if lat.kind.value == "elliptic" else 0.2
            w = 0.0
            for n in range(3, 7):
                target_order = n - 2
                for _ in range(20):
                    pts = draw_points(rng, lat, n, sep)
                    eta = draw_eta(rng, lat)
                    got = scalar_cyclic_sum(n, 1, eta, pts, lat)
                    want = (-1) ** n * weierstrass_p(eta, lat, target_order)
                    w = max(w, abs(got - want) / (1 + abs(want)))
            worst[lat.kind.value] = (w, bound)
        elapsed = time.monotonic() - t0
        ok = all(w < b for w, b in worst.values()) and elapsed < 5.0
        detail = ", ".join(f"{k} worst {w:.2e} (< {b:g})"
                           for k, (w, b) in worst.items())
        self.announce("scalar cyclic sums n=3..6", ok, detail, elapsed, 5)
        assert ok

    def test_criterion_2_unitarity(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1002)
        worst_op = worst_coeff = 0.0
        for N, hbar in ((2, 0.17 + 0.09j), (3, 0.11 + 0.07j)):
            spec = belavin(N, hbar)
            for _ in range(20):
                z = draw_points(rng, EL, 1, 0.05)[0]
                rep = check_unitarity(spec, z)
                worst_op = max(worst_op, rep.details["nonscalar_residual"])
                coeff, want = rep.details["coefficient"], rep.details["expected"]
                worst_coeff = max(worst_coeff,
                                  abs(coeff - want) / max(abs(want), 1.0))
        worst_yang = 0.0
        for _ in range(20):
            h = draw_eta(rng, RA)
            z = draw_points(rng, RA, 1, 0.05)[0]
            rep = check_unitarity(yang(2, h), z)
            want = 1 / h ** 2 - 4 / z ** 2
            coeff = rep.details["coefficient"]
            worst_yang = max(worst_yang, rep.residual,
                             abs(coeff - want) / max(abs(want), 1.0))
        elapsed = time.monotonic() - t0
        ok = (worst_op < 1e-10 and worst_coeff < 1e-9
              and worst_yang < 1e-13 and elapsed < 2.0)
        self.announce(
            "unitarity",
            ok,
            f"elliptic operator {worst_op:.2e} (< 1e-10), coefficient "
            f"{worst_coeff:.2e} (< 1e-9), rational {worst_yang:.2e} (< 1e-13)",
            elapsed, 2,
        )
        assert ok

    def test_criterion_3_qybe_aybe(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1003)
        worst = {"elliptic": 0.0, "rational": 0.0}
        for N, hbar in ((2, 0.17 + 0.09j), (3, 0.11 + 0.07j)):
            spec = belavin(N, hbar)
            for _ in range(20):
                pts = draw_points(rng, EL, 3, 0.07)
                worst["elliptic"] = max(worst["elliptic"],
                                        check_qybe(spec, pts).residual)
            for _ in range(20):
                pts = draw_points(rng, EL, 3, 0.07)
                while True:
                    u, v = rng.uniform(0.08, 0.42, 2)
                    eta = complex(u + v * 1j)
                    try:
                        spec.validate_hbar(eta)
                        spec.validate_hbar(spec.hbar - eta)
                    except Exception:
                        continue
                    if abs(spec.hbar - eta) > 0.03:
                        break
                worst["elliptic"] = max(worst["elliptic"],
                                        check_aybe(spec, pts, eta).residual)
        spec = yang(2, 0.7 + 0.3j)
        for _ in range(20):
            pts = draw_points(rng, RA, 3, 0.2)
            worst["rational"] = max(worst["rational"],
                                    check_qybe(spec, pts).residual)
            eta = draw_eta(rng, RA)
            if abs(spec.hbar - eta) > 0.05:
                worst["rational"] = max(worst["rational"],
                                        check_aybe(spec, pts, eta).residual)
        elapsed = time.monotonic() - t0
        ok = (worst["elliptic"] < 1e-9 and worst["rational"] < 1e-13
              and elapsed < 10.0)
        self.announce(
            "qybe and aybe",
            ok,
            f"elliptic worst {worst['elliptic']:.2e} (< 1e-9), rational "
            f"worst {worst['rational']:.2e} (< 1e-13)",
            elapsed, 10,
        )
        assert ok

    def test_criterion_4_nth_order_hierarchy(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1004)

        layout4 = cyclic_orderings(4, 1)
        layout_ok = layout4 == [
            (2, 3, 4), (2, 4, 3), (3, 2, 4), (3, 4, 2), (4, 2, 3), (4, 3, 2)
        ]
        got5 = cyclic_orderings(5, 1)
        layout_ok = layout_ok and len(got5) == 24 and set(got5) == {
            (5, 4, 3, 2), (4, 5, 3, 2), (3, 5, 4, 2), (5, 3, 4, 2),
            (3, 4, 5, 2), (4, 3, 5, 2), (2, 5, 4, 3), (2, 4, 5, 3),
            (5, 4, 2, 3), (4, 2, 5, 3), (4, 5, 2, 3), (5, 2, 4, 3),
            (2, 3, 5, 4), (2, 5, 3, 4), (3, 2, 5, 4), (5, 3, 2, 4),
            (3, 5, 2, 4), (5, 2, 3, 4), (2, 3, 4, 5), (2, 4, 3, 5),
            (3, 2, 4, 5), (4, 3, 2, 5), (3, 4, 2, 5), (4, 2, 3, 5),
        }

        worst_op = worst_coeff = 0.0
        cases = ((2, 3, 20), (2, 4, 10), (2, 5, 5), (3, 3, 10), (3, 4, 5))
        for N, n, count in cases:
            spec = belavin(N, 0.17 + 0.09j if N == 2 else 0.11 + 0.07j)
            for _ in range(count):
                pts = draw_points(rng, EL, n, 0.07)
                rep = check_nth_order(spec, n, pts)
                worst_op = max(worst_op, rep.details["nonscalar_residual"])
                coeff, want = rep.details["coefficient"], rep.details["expected"]
                worst_coeff = max(worst_coeff,
                                  abs(coeff - want) / max(abs(want), 1.0))

        worst_yang = 0.0
        h = 0.7 + 0.3j
        for n in (3, 4, 5):
            pts = draw_points(rng, RA, n, 0.2)
            rep = check_nth_order(yang(2, h), n, pts)
            want = math.factorial(n - 1) / h ** n
            got = rep.details["coefficient"]
            worst_yang = max(worst_yang, abs(got - want) / abs(want))

        elapsed = time.monotonic() - t0
        ok = (layout_ok and worst_op < 1e-9 and worst_coeff < 5e-9
              and worst_yang < 1e-12 and elapsed < 60.0)
        self.announce(
            "higher order identities (N=2 n=3,4,5; N=3 n=3,4)",
            ok,
            f"layouts {'ok' if layout_ok else 'WRONG'}, operator "
            f"{worst_op:.2e} (< 1e-9), coefficient {worst_coeff:.2e} "
            f"(< 5e-9), rational coefficient {worst_yang:.2e} (< 1e-12)",
            elapsed, 60,
        )
        assert ok

    def test_criterion_5_same_site(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1005)
        worst = 0.0
        for N, hbar in ((2, 0.17 + 0.09j), (3, 0.11 + 0.07j)):
            spec = belavin(N, hbar)
            for _ in range(5):
                z = draw_points(rng, EL, 1, 0.05)[0]
                mat = r_same_site(spec, z)
                want = N * kronecker_phi(N * hbar, z / N, EL)
                assert abs(same_site_closed_form(spec, z) - want) == 0.0
                resid = np.linalg.norm(mat - want * np.eye(N)) / max(
                    1.0, abs(want))
                worst = max(worst, resid)
        elapsed = time.monotonic() - t0
        ok = worst < 1e-10 and elapsed < 1.0
        self.announce("same-site collapse", ok,
                 f"worst {worst:.2e} (< 1e-10)", elapsed, 1)
        assert ok

    def test_criterion_6_classical_structure(self):
        t0 = time.monotonic()
        worst_extract = worst_skew = worst_m = 0.0
        for N, hbar in ((2, 0.17 + 0.09j), (3, 0.11 + 0.07j)):
            spec = belavin(N, hbar)
            z = 0.41 + 0.23j
            pair = classical_expansion(spec, z, quadrature_points=64)
            worst_extract = max(worst_extract, pair.extraction_residual)
            perm = permutation_operator(N)
            r_pos = classical_closed_form(spec, z)[0]
            r_neg = classical_closed_form(spec, -z)[0]
            s = max(1.0, np.linalg.norm(r_pos))
            worst_skew = max(worst_skew,
                             np.linalg.norm(r_pos + perm @ r_neg @ perm) / s)
            m_an = classical_closed_form(spec, z)[1]
            m_sq = 0.5 * (r_pos @ r_pos
                          - N * N * weierstrass_p(z, EL) * np.eye(N * N))
            worst_m = max(worst_m,
                          np.linalg.norm(m_an - m_sq) / max(1.0, np.linalg.norm(m_an)))
        yspec = yang(2, 0.7 + 0.3j)
        zy = 1.3 + 0.4j
        ypair = classical_expansion(yspec, zy, quadrature_points=64)
        yang_resid = max(
            np.linalg.norm(ypair.r - (2 / zy) * permutation_operator(2)),
            np.linalg.norm(ypair.m),
        ) / max(1.0, np.linalg.norm(ypair.r))
        elapsed = time.monotonic() - t0
        ok = (worst_extract < 1e-10 and worst_skew < 1e-9 and worst_m < 1e-9
              and yang_resid < 1e-12 and elapsed < 5.0)
        self.announce(
            "classical coefficients",
            ok,
            f"extraction {worst_extract:.2e} (< 1e-10), skew {worst_skew:.2e}"
            f" (< 1e-9), second coefficient {worst_m:.2e} (< 1e-9), rational "
            f"{yang_resid:.2e} (< 1e-12)",
            elapsed, 5,
        )
        assert ok

    def test_criterion_7_flatness(self):
        t0 = time.monotonic()
        pts = [0.31 + 0.11j, 0.62 + 0.29j, 0.18 + 0.41j]
        pts4 = pts + [0.47 + 0.23j]
        worst_el = 0.0
        for N, hbar in ((2, 0.17 + 0.09j), (3, 0.11 + 0.07j)):
            rep = check_kzb_flatness(belavin(N, hbar), pts)
            worst_el = max(worst_el, rep.residual)
        yang_resid = check_kzb_flatness(
            yang(2, 0.7 + 0.3j), [0.3, 1.1 + 0.4j, 2.2 - 0.3j],
            use_closed_form=True,
        ).residual
        spec = belavin(2, 0.17 + 0.09j)
        sides = []
        worst_order = 0.0
        for n, p in ((3, pts), (4, pts4)):
            rep = check_hbar_order_relation(spec, n, p)
            worst_order = max(worst_order, rep.residual)
            sides.append((n, rep.details["lhs_norm"], rep.details["rhs_norm"]))
        elapsed = time.monotonic() - t0
        ok = (worst_el < 1e-8 and yang_resid < 1e-13 and worst_order < 1e-8
              and elapsed < 10.0)
        side_txt = "; ".join(
            f"n={n} sides {l:.6e}/{r:.6e}" for n, l, r in sides)
        self.announce(
            "flatness and first-order relation",
            ok,
            f"elliptic {worst_el:.2e} (< 1e-8), rational {yang_resid:.2e} "
            f"(< 1e-13), order relation {worst_order:.2e} (< 1e-8), {side_txt}",
            elapsed, 10,
        )
        assert ok

    def test_criterion_8_trace_powers(self):
        t0 = time.monotonic()
        el_pts = (0.31 + 0.11j, 0.62 + 0.29j, 0.18 + 0.41j, 0.47 + 0.23j)
        momenta = (0.21 - 0.11j, -0.34 + 0.07j, 0.55 + 0.19j, -0.12 + 0.31j)
        worst = 0.0
        cases = ((2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 3), (2, 4, 4))
        for N, n, k in cases:
            spec = belavin(N, 0.17 + 0.09j if N == 2 else 0.11 + 0.07j)
            cfg = CalogeroConfig(rspec=spec, momenta=momenta[:n],
                                 positions=el_pts[:n], coupling=0.8 - 0.2j)
            rep = check_trace_power_guess(cfg, k)
            worst = max(worst, rep.residual)
        elapsed = time.monotonic() - t0
        ok = worst < 1e-8 and elapsed < 30.0
        self.announce("block trace powers", ok,
                 f"worst {worst:.2e} (< 1e-8)", elapsed, 30)
        assert ok

    def test_criterion_9_determinism(self):
        t0 = time.monotonic()
        kw = dict(suite="all", kind="all", samples=2, n_max=3)
        a = run_suites(**kw)
        b = run_suites(**kw)
        same = json.dumps(a["records"]) == json.dumps(b["records"])
        clean = a["summary"]["failed"] == 0
        elapsed = time.monotonic() - t0
        ok = same and clean
        self.announce(
            "deterministic replay",
            ok,
            f"records {'identical' if same else 'DIFFER'}, "
            f"{a['summary']['passed']}/{a['summary']['executed']} passed",
            elapsed,
        )
        assert ok
