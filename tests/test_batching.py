"""Broadcast evaluation against scalar calls, and the batching it buys.

``r_matrix``, ``classical_closed_form`` and the special functions take
arrays and evaluate every entry in one pass: one lattice check, one theta
series.  Each array entry must equal the scalar call at that entry, a bad
entry must still raise naming its slot, and the call counts pin the
batching so that a check cannot quietly go back to one call per factor.
"""

import re

import mpmath as mp
import numpy as np
import pytest

from rmx import (
    CalogeroConfig,
    RmxError,
    UsageError,
    applications,
    errors,
    LatticeParams,
    PoleProximity,
    RMatrixSpec,
    ZeroArgument,
    check_aybe,
    check_qybe,
    check_kzb_flatness,
    check_trace_power_guess,
    classical_closed_form,
    classical_expansion,
    cli,
    eisenstein_e1,
    fay_check,
    identities,
    kronecker_phi,
    kronecker_phi_deta,
    permutation_operator,
    r_matrix,
    rmatrix,
    run_suites,
    scalar_cyclic_sum,
    special_functions,
    weierstrass_p,
)

from dense_oracle import round_off_equal

RA = LatticeParams(kind="rational")
TR = LatticeParams(kind="trigonometric")
EL = LatticeParams(kind="elliptic", tau=1j)
ELS = LatticeParams(kind="elliptic", tau=0.3 + 0.8j)

Z = np.array([[0.31 + 0.11j, -0.62 + 0.29j, 0.18 - 0.41j],
              [0.47 + 0.23j, 0.83 + 0.07j, -0.29 - 0.17j]])
HBAR = np.array([0.17 + 0.09j, 0.07 + 0.04j, 0.11 - 0.05j])


def spec(family, N, hbar=0.17 + 0.09j):
    lattice = RA if family == "yang" else EL
    return RMatrixSpec(kind=family, site_dim=N, lattice=lattice, hbar=hbar)


def belavin(N=2):
    return spec("belavin", N)


def close(batch, scalars, rtol=1e-15):
    """Each entry of batch equals its scalar value to rtol of the entry."""
    for got, want in zip(batch.reshape(len(scalars), -1), scalars):
        want = np.ravel(want)
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("family", ["yang", "belavin"])
@pytest.mark.parametrize("N", [1, 2, 3])
class TestRMatrixBroadcast:
    def test_r_matrix_over_z_and_hbar(self, family, N):
        s = spec(family, N)
        got = r_matrix(s, Z, HBAR)
        assert got.shape == Z.shape + (N * N, N * N)
        zs, hs = np.broadcast_arrays(Z, HBAR)
        close(got, [r_matrix(s, complex(z), complex(h))
                    for z, h in zip(zs.ravel(), hs.ravel())])

    def test_r_matrix_over_z(self, family, N):
        s = spec(family, N)
        got = r_matrix(s, Z)
        close(got, [r_matrix(s, complex(z)) for z in Z.ravel()])

    def test_classical_closed_form_over_z(self, family, N):
        s = spec(family, N)
        r, m = classical_closed_form(s, Z)
        assert r.shape == m.shape == Z.shape + (N * N, N * N)
        scalars = [classical_closed_form(s, complex(z)) for z in Z.ravel()]
        close(r, [pair[0] for pair in scalars])
        if family == "belavin":
            close(m, [pair[1] for pair in scalars])
        else:
            assert not m.any()


def test_yang_entries_are_bitwise_the_scalar_formula():
    # a batched Yang matrix keeps the bits of Id/hbar + (N/z) P at each
    # point, in numpy's complex division
    s = spec("yang", 3)
    got = r_matrix(s, Z, HBAR)
    zs, hs = np.broadcast_arrays(Z, HBAR)
    for k, (z, h) in enumerate(zip(zs.ravel().tolist(), hs.ravel().tolist())):
        want = (np.eye(9, dtype=complex) / h
                + (3 / np.complex128(z)) * permutation_operator(3))
        assert np.array_equal(got.reshape(-1, 9, 9)[k], want)
    r, _ = classical_closed_form(s, Z)
    for k, z in enumerate(Z.ravel().tolist()):
        assert np.array_equal(r.reshape(-1, 9, 9)[k],
                              (3 / np.complex128(z)) * permutation_operator(3))


KINDS = [RA, TR, EL, ELS]
KIND_IDS = ["rational", "trigonometric", "elliptic", "elliptic-skewed"]


@pytest.mark.parametrize("lat", KINDS, ids=KIND_IDS)
class TestSpecialFunctionsBroadcast:
    def test_kronecker_phi(self, lat):
        eta = HBAR + 0.2
        close(kronecker_phi(eta, Z, lat),
              [kronecker_phi(complex(e), complex(z), lat)
               for e, z in zip(*map(np.ravel, np.broadcast_arrays(eta, Z)))])

    def test_kronecker_phi_deta(self, lat):
        eta = HBAR + 0.2
        close(kronecker_phi_deta(eta, Z, lat),
              [kronecker_phi_deta(complex(e), complex(z), lat)
               for e, z in zip(*map(np.ravel, np.broadcast_arrays(eta, Z)))])

    @pytest.mark.parametrize("order", [0, 1, 3, 6])
    def test_e1_and_wp(self, lat, order):
        # a batch may sum theta's terms in another order, and the derivative
        # recursion amplifies the last-bit differences
        rtol = 2e-15 if order == 0 else 1e-14
        close(eisenstein_e1(Z, lat, order),
              [eisenstein_e1(complex(z), lat, order) for z in Z.ravel()], rtol)
        close(weierstrass_p(Z, lat, order),
              [weierstrass_p(complex(z), lat, order) for z in Z.ravel()], rtol)


def mp_theta(z, tau, derivative=0):
    mp.mp.dps = 30
    q = mp.exp(1j * mp.pi * tau)
    value = mp.jtheta(1, mp.pi * mp.mpc(z), q, derivative=derivative)
    return value * mp.pi ** derivative


@pytest.mark.parametrize("lat", [EL, ELS], ids=["tau=i", "tau=0.3+0.8i"])
def test_kronecker_phi_deta_matches_mpmath(lat):
    tau = lat.tau
    for eta, z in ((0.21 + 0.13j, 0.37 - 0.08j), (-0.4 + 0.3j, 0.15 + 0.22j)):
        # d/deta of theta'(0) theta(eta + z) / (theta(eta) theta(z))
        t_sum, t_eta, t_z = (mp_theta(v, tau) for v in (eta + z, eta, z))
        d_sum, d_eta = mp_theta(eta + z, tau, 1), mp_theta(eta, tau, 1)
        want = complex(mp_theta(0, tau, 1) * (d_sum * t_eta - t_sum * d_eta)
                       / (t_eta ** 2 * t_z))
        got = kronecker_phi_deta(eta, z, lat)
        assert abs(got - want) <= 1e-12 * abs(want)


class TestBadEntryNamesItsSlot:
    def test_kronecker_slots(self):
        for args, slot in (
            (([0.3, 1e-9, 0.4], 0.2), "phi eta argument"),
            ((0.3, [0.2, 0.5, 1 + 1e-9]), "phi z argument"),
            ((0.3, [0.2, -0.3 + 1e-9j]), "phi eta+z argument"),
        ):
            for fn in (kronecker_phi, kronecker_phi_deta):
                with pytest.raises(PoleProximity, match=f"^{re.escape(slot)} "):
                    fn(*args, EL)

    def test_e1_and_wp(self):
        with pytest.raises(PoleProximity, match=r"E1 argument \(1e-09"):
            eisenstein_e1([0.3, 0.1j, 1e-9], RA)
        with pytest.raises(PoleProximity, match=r"wp argument \(1"):
            weierstrass_p([0.3, 1 + 1e-8j], EL, 2)

    def test_r_matrix_entries(self):
        s = belavin()
        with pytest.raises(PoleProximity, match="phi eta argument 0j"):
            r_matrix(s, [0.3 + 0.1j, 0.0])
        # N*hbar = 1 sits on the lattice while hbar = 0.5 does not
        with pytest.raises(PoleProximity, match=r"N\*hbar \(1"):
            r_matrix(s, 0.3 + 0.1j, [0.1 + 0.1j, 0.5])
        with pytest.raises(PoleProximity, match=r"^hbar \(1e-09"):
            r_matrix(s, [0.3, 0.4], [0.1 + 0.1j, 1e-9])
        with pytest.raises(PoleProximity, match=r"spectral parameter z 1j"):
            classical_closed_form(s, [0.3 + 0.1j, 1j])
        with pytest.raises(ZeroArgument):
            r_matrix(spec("yang", 2), [0.3 + 0.1j, 0.0])
        with pytest.raises(ZeroArgument):
            classical_closed_form(spec("yang", 2), [0.3 + 0.1j, 0.0])


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


PTS = [0.31 + 0.11j, 0.62 + 0.29j, 0.18 + 0.41j]


class TestOneCallPerCheck:
    """The batching, pinned by counting calls after the caches are warm."""

    @pytest.fixture(autouse=True)
    def warm(self):
        classical_closed_form(belavin(), 0.3 + 0.1j)

    def test_theta_once_per_elliptic_kronecker_phi(self, monkeypatch):
        calls = counting(monkeypatch, special_functions, "_theta_derivs")
        kronecker_phi(0.21 + 0.13j, Z, EL)
        assert len(calls) == 1
        kronecker_phi_deta(0.21 + 0.13j, Z, EL)
        assert len(calls) == 2

    def test_theta_once_per_classical_closed_form(self, monkeypatch):
        calls = counting(monkeypatch, special_functions, "_theta_derivs")
        classical_closed_form(belavin(3), Z)
        assert len(calls) == 1

    def test_theta_once_per_qybe(self, monkeypatch):
        calls = counting(monkeypatch, special_functions, "_theta_derivs")
        assert check_qybe(belavin(2), PTS).passed
        assert len(calls) == 1

    def test_one_lattice_check_per_kronecker_phi(self, monkeypatch):
        calls = counting(monkeypatch, LatticeParams, "lattice_distance")
        for lat in (RA, TR, EL):
            calls.clear()
            kronecker_phi(0.21 + 0.13j, Z, lat)
            assert len(calls) == 1

    def test_one_r_matrix_call_per_aybe(self, monkeypatch):
        calls = counting(monkeypatch, identities, "r_matrix")
        assert check_aybe(belavin(2), PTS, 0.07 + 0.04j).passed
        assert len(calls) == 1
        assert np.size(calls[0][1]) == 6

    def test_one_r_matrix_call_per_trace_power(self, monkeypatch):
        calls = counting(monkeypatch, applications, "r_matrix")
        config = CalogeroConfig(rspec=belavin(2), momenta=(0.3, 0.5, 0.7),
                                positions=PTS)
        assert check_trace_power_guess(config, 3).passed
        assert len(calls) == 1
        assert np.size(calls[0][1]) == 6

    @pytest.mark.parametrize("family", ["yang", "belavin"])
    def test_classical_contour_evaluated_once(self, monkeypatch, family):
        calls = counting(monkeypatch, rmatrix, "r_matrix")
        s = spec(family, 2)
        pair = classical_expansion(s, 0.44 + 0.19j, quadrature_points=32)
        assert len(calls) == 1
        assert np.size(calls[0][2]) == 64
        # the coarse sums are those of a direct evaluation at 32 nodes
        radius = rmatrix._default_radius(s, 0.44 + 0.19j)
        coeffs = [rmatrix._laurent_coefficients(nodes, r_matrix(s, 0.44 + 0.19j, nodes))
                  for nodes in (rmatrix._contour(s, radius, p) for p in (32, 64))]
        want = max(np.linalg.norm(coeffs[0][j] - coeffs[1][j])
                   / max(np.linalg.norm(coeffs[0][j]),
                         np.linalg.norm(coeffs[1][j]), 1.0) for j in (-1, 0, 1))
        assert pair.extraction_residual == pytest.approx(want, rel=1e-12, abs=1e-30)


class TestGroupedAndJoint:
    """errors._grouped makes one build call per key group and lets an error
    propagate; errors._joint reruns a group that raised one item at a time."""

    ITEMS = [3, -4, 5, 6, 7, 8]

    @staticmethod
    def build(calls):
        """A build that records its groups and raises on a negative item."""
        def build(group):
            calls.append(group)
            if min(group) < 0:
                raise UsageError(f"negative item in {group}")
            return [10 * item for item in group]
        return build

    @pytest.mark.parametrize("grouping", [errors._grouped, errors._joint])
    def test_one_call_per_group_when_nothing_fails(self, grouping):
        calls = []
        out = grouping(self.build(calls), [3, 4, 5, 6], lambda item: item % 2)
        assert out == [30, 40, 50, 60]
        assert calls == [[3, 5], [4, 6]]

    def test_grouped_raises_without_isolating(self):
        calls = []
        with pytest.raises(UsageError, match=r"^negative item in \[-4, 6, 8\]$"):
            errors._grouped(self.build(calls), self.ITEMS, lambda item: item % 2)
        assert calls == [[3, 5, 7], [-4, 6, 8]]

    def test_joint_makes_one_call_per_item_after_one_fails(self):
        calls = []
        out = errors._joint(self.build(calls), self.ITEMS, lambda item: item % 2)
        assert calls == [[3, 5, 7], [-4, 6, 8], [-4], [6], [8]]
        assert [type(v) for v in out] == [int, UsageError, int, int, int, int]
        assert str(out[1]) == "negative item in [-4]"
        assert [v for v in out if not isinstance(v, RmxError)] == [30, 50, 60, 70, 80]

    def test_each_failing_item_gets_its_lone_error(self):
        calls = []
        out = errors._joint(self.build(calls), [1, -2, 3, -4, 5, 6, -7, 8], lambda _: None)
        assert [str(v) for v in out if isinstance(v, RmxError)] == [
            f"negative item in [{v}]" for v in (-2, -4, -7)]
        assert [v for v in out if not isinstance(v, RmxError)] == [10, 30, 50, 60, 80]

    def test_joint_passes_on_other_exceptions(self):
        def build(group):
            raise KeyError("not an RmxError")
        with pytest.raises(KeyError):
            errors._joint(build, [1, 2], lambda _: None)


PTS5 = PTS + [0.47 + 0.23j, 0.83 + 0.07j]


class TestLockstepEntries:
    """The entries of scalar-cyclic, fay, classical and kzb-flatness give a
    mixed batch what each request gives alone: bit for bit where a request's
    arithmetic is its lone one (the rational and trigonometric kinds and
    Yang), up to round-off (``dense_oracle.round_off_equal``) in the
    elliptic kind, whose theta series a batch sizes for all of its
    requests."""

    @staticmethod
    def assert_lone(entry, lone, requests, elliptic):
        for request, got, rel in zip(requests, entry(requests),
                                     [1e-13 if e else 0.0 for e in elliptic]):
            assert round_off_equal(got, lone(*request), rel), request

    def test_scalar_cyclic(self):
        requests = [(n, a, eta, PTS5[:n], lat) for lat in (RA, TR, EL, ELS)
                    for n, a, eta in ((2, 1, 0.21 + 0.13j), (3, 2, 0.17 - 0.09j),
                                      (4, 4, 0.21 + 0.13j), (5, 3, 0.11 + 0.05j))]
        self.assert_lone(special_functions._scalar_cyclic_sums, scalar_cyclic_sum, requests,
                         [r[4].kind.value == "elliptic" for r in requests])

    def test_fay(self):
        requests = [(0.31 + 0.07j, eta, 0.41 + 0.11j, 0.23 + 0.33j, lat)
                    for lat in (RA, TR, EL, ELS) for eta in (0.31 + 0.07j, 0.17 + 0.12j)]
        self.assert_lone(special_functions._fay_checks, fay_check, requests,
                         [r[4].kind.value == "elliptic" for r in requests])

    def test_classical(self):
        requests = [(spec(family, N), z, points, radius)
                    for family in ("yang", "belavin") for N in (1, 2, 3)
                    for z, points, radius in ((0.44 + 0.19j, 32, None),
                                              (0.31 - 0.12j, 16, None), (0.52 + 0.1j, 32, 0.02))]
        self.assert_lone(rmatrix._classical_expansions, classical_expansion, requests,
                         [r[0].kind.value == "belavin" for r in requests])

    def test_kzb_flatness(self):
        requests = [(spec(family, N), PTS, points, None, None, closed)
                    for family in ("yang", "belavin") for N in (2, 3)
                    for points, closed in ((32, False), (16, False), (32, True))]
        self.assert_lone(applications._kzb_batch, check_kzb_flatness, requests,
                         [r[0].kind.value == "belavin" for r in requests])


class TestOneCallPerPart:
    """A rmx verify part calls each of these once for all of its samples."""

    @pytest.mark.parametrize("kind", ["rational", "trigonometric", "elliptic"])
    def test_one_kronecker_phi_call_per_scalar_entry(self, monkeypatch, kind):
        calls = counting(monkeypatch, special_functions, "kronecker_phi")
        rep = run_suites(suite="scalar", kind=kind, samples=4)
        assert rep["summary"]["failed"] == 0
        # one for the cyclic sums of every order, one for the fay cases
        assert len(calls) == 2
        assert [np.size(args[1]) for args in calls] == [4 * (2 + 6 + 12), 4 * (6 + 3)]

    @pytest.mark.parametrize("kind", ["rational", "elliptic"])
    def test_one_contour_r_matrix_call_per_part(self, monkeypatch, kind):
        # classical's contour nodes at its z, and kzb-flatness's at its three
        # pairs; the other r_matrix calls take the spec's hbar as a column
        for suite, owner, z, nodes in (("rmatrix-basic", rmatrix, (4, 1), (4, 64)),
                                       ("applications", applications, (4, 3, 1), (4, 1, 32))):
            calls = counting(monkeypatch, owner, "r_matrix")
            run_suites(suite=suite, kind=kind, samples=4)
            contours = [args for args in calls if np.shape(args[2])[-1] != 1]
            assert [(np.shape(a[1]), np.shape(a[2])) for a in contours] == [(z, nodes)]

    @pytest.mark.parametrize("suite, second", [
        ("scalar", [4]), ("rmatrix-basic", [4]), ("nth-order", []), ("applications", [])])
    def test_one_sample_hbar_call_for_the_second_draws(self, monkeypatch, suite, second):
        # the first draws of every case, then fay's generic eta or AYBE's eta
        calls = []
        sample = cli._sample_hbar
        monkeypatch.setattr(cli, "_sample_hbar", lambda rngs, *args: (
            calls.append(len(rngs)) or sample(rngs, *args)))
        rep = run_suites(suite=suite, kind="elliptic", samples=4)
        assert calls == [rep["summary"]["executed"]] + second

    def test_theta_series_per_default_sweep(self, monkeypatch):
        run_suites()
        calls = counting(monkeypatch, special_functions, "_theta_derivs")
        run_suites()
        # 91 when scalar-cyclic, fay, classical and kzb-flatness ran per case
        # and each cyclic request made its own wp calls
        assert len(calls) == 55
