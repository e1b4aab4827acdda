"""Oracle and property tests for the scalar special functions."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import mpmath as mp

from rmx import special_functions
from rmx import (
    DegenerateArguments,
    DimensionMismatch,
    FunctionKind,
    IndexOutOfRange,
    LatticeParams,
    MAX_WP_DERIV_ORDER,
    NonEllipticKind,
    PoleProximity,
    SeriesNotConverged,
    UnsupportedDerivOrder,
    UsageError,
    eisenstein_e1,
    fay_check,
    kronecker_phi,
    kronecker_phi_deta,
    scalar_cyclic_sum,
    theta,
    weierstrass_p,
)

from dense_oracle import literal_cyclic_sum

EL = LatticeParams(kind="elliptic", tau=1j)
RA = LatticeParams(kind="rational")
TR = LatticeParams(kind="trigonometric")

ALL_KINDS = [
    (RA, "rational"),
    (TR, "trigonometric"),
    (LatticeParams(kind="elliptic", tau=0.13 + 1.21j), "elliptic"),
]


def mp_theta(z, tau, derivative=0):
    """Independent oracle built on mpmath's theta series."""
    mp.mp.dps = 25
    q = mp.exp(1j * mp.pi * tau)
    val = mp.jtheta(1, mp.pi * mp.mpc(z), q, derivative=derivative)
    return complex(val) * np.pi ** derivative


def fd4(f, x, h):
    # fourth order central difference
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


class TestTheta:
    def test_frozen_value(self):
        # theta(0.3 | tau=i), computed independently at 30 digits
        assert abs(theta(0.3, EL) - 0.73719716371868159764) < 1e-15

    def test_frozen_slope_at_origin(self):
        assert abs(theta(0.0, EL, deriv_order=1) - 2.8486946039877873161) < 1e-14

    def test_matches_mpmath_generic_tau(self):
        tau = 0.21 + 1.33j
        par = LatticeParams(kind="elliptic", tau=tau)
        for z in (0.37, 0.18 + 0.42j, -0.53 + 0.11j):
            for d in (0, 1, 2, 3):
                want = mp_theta(z, tau, d)
                got = theta(z, par, deriv_order=d)
                assert abs(got - want) <= 1e-13 * (1 + abs(want))

    def test_odd(self):
        for z in (0.31, 0.21 + 0.17j):
            assert abs(theta(z, EL) + theta(-z, EL)) < 1e-15

    def test_periodicity(self):
        z = 0.27 + 0.33j
        assert abs(theta(z + 1, EL) + theta(z, EL)) < 1e-13
        # quasi-periodicity in the tau direction
        factor = -np.exp(-1j * np.pi * EL.tau - 2j * np.pi * z)
        shifted = theta(z + EL.tau, EL)
        assert abs(shifted - factor * theta(z, EL)) < 1e-13 * (1 + abs(shifted))

    def test_vectorized(self):
        zs = np.array([0.21, 0.34 + 0.2j, 0.55])
        vals = theta(zs, EL)
        assert vals.shape == (3,)
        assert abs(vals[1] - theta(zs[1], EL)) < 1e-15

    def test_requires_elliptic_kind(self):
        with pytest.raises(NonEllipticKind):
            theta(0.3, RA)

    def test_deriv_order_must_be_an_integer(self):
        for order in (2.0, -1.5, "1"):
            message = f"^deriv_order must be an integer, got {order!r}"
            with pytest.raises(UsageError, match=message):
                theta(0.3, EL, deriv_order=order)
        assert theta(0.3, EL, deriv_order=np.int64(1)) == theta(0.3, EL, deriv_order=1)

    def test_nonconvergent_series_raises(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a series was summed")

        slow = LatticeParams(kind="elliptic", tau=1e-5j)  # over 1000 terms
        monkeypatch.setattr(special_functions, "_theta_factors", unreachable)
        with pytest.raises(SeriesNotConverged):
            theta(0.3, slow)

    def test_overflow_raises(self):
        with pytest.raises(SeriesNotConverged):
            theta(300j, EL)

    def test_non_finite_arguments_raise(self):
        with pytest.raises(SeriesNotConverged):
            theta(np.nan, EL)
        with pytest.raises(SeriesNotConverged):
            theta(complex(0, np.inf), EL)
        with pytest.raises(SeriesNotConverged), np.errstate(invalid="ignore"):
            kronecker_phi(0.3, np.inf, EL)
        # the lattice check rejects an entry at no finite distance, for
        # every kind, naming its slot
        with np.errstate(invalid="ignore"):
            for call, slot in (
                (lambda: kronecker_phi(0.3, np.nan, RA), "phi z argument"),
                (lambda: kronecker_phi(np.inf, 0.3, RA), "phi eta argument"),
                (lambda: weierstrass_p(np.nan, RA), "wp argument"),
                (lambda: weierstrass_p(complex(np.inf, np.inf), RA), "wp argument"),
                (lambda: eisenstein_e1(np.inf * 1j, TR), "E1 argument"),
                (lambda: eisenstein_e1([0.3, -np.inf], TR), "E1 argument"),
            ):
                with pytest.raises(SeriesNotConverged, match=slot):
                    call()

    def test_large_im_tau(self):
        # at Im(tau) = 300 the functions are their q -> 0 limits; from the
        # underflow bound on, theta values underflow and every call raises
        eta, z = 0.2 + 0.05j, 0.3 + 0.1j
        limits = (
            (lambda p: kronecker_phi(eta, z, p),
             np.pi / np.tan(np.pi * eta) + np.pi / np.tan(np.pi * z)),
            (lambda p: eisenstein_e1(z, p), np.pi / np.tan(np.pi * z)),
            (lambda p: weierstrass_p(z, p),
             np.pi ** 2 / np.sin(np.pi * z) ** 2 - np.pi ** 2 / 3),
        )
        near = LatticeParams(kind="elliptic", tau=300j)
        for call, limit in limits:
            assert abs(call(near) - limit) <= 1e-12 * abs(limit)
        for tau in (900j, 1000j, 1e5j):
            far = LatticeParams(kind="elliptic", tau=tau)
            for call, _ in limits:
                with pytest.raises(SeriesNotConverged, match="underflow"):
                    call(far)

    def test_bad_tau_rejected(self):
        with pytest.raises(NonEllipticKind):
            LatticeParams(kind="elliptic", tau=1.0)
        # a non-finite tau has no lattice to reduce
        for tau in (complex(0.3, np.inf), complex(np.inf, 1.0), complex(np.nan, 1.0)):
            with pytest.raises(NonEllipticKind, match="finite tau"):
                LatticeParams(kind="elliptic", tau=tau)
        # the other kinds ignore tau
        assert LatticeParams(kind="rational", tau=complex(0.3, np.inf))


# every public function of this module that converts an argument to an
# array; a value numpy cannot make complex had raised numpy's bare ValueError
MALFORMED = {
    "theta": (lambda: theta("x", EL), "z"),
    "eisenstein_e1": (lambda: eisenstein_e1("x", RA), "z"),
    "weierstrass_p": (lambda: weierstrass_p(["x"], EL), "z"),
    "kronecker_phi": (lambda: kronecker_phi("x", 0.2, EL), "eta"),
    "kronecker_phi-z": (lambda: kronecker_phi(0.2, "x", TR), "z"),
    "kronecker_phi_deta": (lambda: kronecker_phi_deta(0.2, "x", EL), "z"),
    "lattice_distance": (lambda: EL.lattice_distance("x"), "z"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_argument_is_a_usage_error(case):
    call, name = MALFORMED[case]
    with pytest.raises(UsageError, match=f"^{name} must be complex, got "):
        call()


class TestThetaCancellation:
    """theta either matches mpmath or raises SeriesNotConverged.

    At small Im(tau), and near lattice points in the tau direction, the
    series sums terms far larger than their sum; eps times the summed term
    magnitudes bounds the round-off, and past 1e-12 of the sum it raises.
    """

    def test_small_im_tau_raises(self):
        # the terms reach 1e7 while theta is 5e-5: about 5 digits lost
        with pytest.raises(SeriesNotConverged):
            theta(0.3 + 0.004j, LatticeParams(kind="elliptic", tau=0.01j))

    def test_near_lattice_point_in_tau_direction_raises(self):
        for z in (1j + 1e-5, 1 + 1j + 1e-5, 1j + 3e-5j):
            with pytest.raises(SeriesNotConverged):
                theta(z, EL)
        # exact zeros have no cancellation to report
        assert theta(0.0, EL) == 0
        assert theta(0.0, EL, deriv_order=2) == 0

    def test_tau_0_2i_matches_mpmath(self):
        tau = 0.2j
        par = LatticeParams(kind="elliptic", tau=tau)
        for z in (0.3 + 0.004j, 0.37 + 0.1j, 0.71 - 0.05j):
            for d in (0, 1, 2):
                want = mp_theta(z, tau, d)
                assert abs(theta(z, par, deriv_order=d) - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("im", [0.01, 0.03, 0.1, 0.3, 1.0, 2.0])
    def test_matches_mpmath_or_raises(self, im):
        raised = 0
        for re_tau in (0.0, 0.3):
            tau = complex(re_tau, im)
            par = LatticeParams(kind="elliptic", tau=tau)
            for x in (0.05, 0.35, 0.65, 0.95):
                for y in (0.05, 0.35, 0.65, 0.95):
                    z = x + y * tau
                    for d in (0, 1, 2):
                        try:
                            got = theta(z, par, deriv_order=d)
                        except SeriesNotConverged:
                            raised += 1
                            continue
                        want = mp_theta(z, tau, d)
                        assert abs(got - want) <= 1e-11 * abs(want), (tau, z, d)
        if im >= 0.3:
            assert raised == 0


def direct_theta_terms(z, tau, d, ks):
    """The order-d z-derivatives of the terms ks of the theta series,
    2 (-1)^k q^((k+1/2)^2) (2 pi (k+1/2))^d sin(2 pi (k+1/2) z + d pi/2),
    with q^(x^2) folded into the two exponentials of the sine."""
    x = np.asarray(ks) + 0.5
    a = 2j * np.pi * x * z + 1j * d * np.pi / 2
    e = np.exp(1j * np.pi * tau * x * x + a) - np.exp(1j * np.pi * tau * x * x - a)
    return (-1.0) ** np.asarray(ks) * (2 * np.pi * x) ** d * e / 1j


def fsum_complex(terms):
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


class TestThetaSeriesBound:
    """The series is cut after K terms, K from an a-priori tail bound."""

    TAUS = [1j, 0.3 + 0.8j, 0.5j, 0.1j, 0.05j, 3.7 + 0.3j]

    @pytest.mark.parametrize("tau", TAUS)
    def test_terms_past_k_are_below_tol(self, tau):
        par = LatticeParams(kind="elliptic", tau=tau)
        for y in np.linspace(0.0, 2 * tau.imag, 9):
            for d in range(MAX_WP_DERIV_ORDER + 3):
                K = special_functions._theta_terms(par, y, d)
                if K > 3:  # K is minimal: term K-4's bound is above tol
                    x = K - 3.5
                    bound = 2 * (2 * np.pi * x) ** d * np.exp(
                        -np.pi * tau.imag * x * x + 2 * np.pi * x * y)
                    assert bound > special_functions.SERIES_TOL, (tau, y, d)
                for z in (0.3 + 1j * y, 0.8 - 1j * y):
                    tail = direct_theta_terms(z, tau, d, range(K - 3, K + 31))
                    assert np.all(np.abs(tail) <= special_functions.SERIES_TOL), (tau, y, d, K)
                    terms = direct_theta_terms(z, tau, d, range(64))
                    full, cut = fsum_complex(terms), fsum_complex(terms[:K])
                    assert abs(cut - full) <= 1e-15 * abs(full), (tau, z, d, K)

    def test_at_most_eight_terms_in_the_cell_at_tau_i(self, monkeypatch):
        sizes = []
        factors = special_functions._theta_factors

        def spy(tau, terms, max_order):
            sizes.append(terms)
            return factors(tau, terms, max_order)

        monkeypatch.setattr(special_functions, "_theta_factors", spy)
        grid = np.array([0.05, 0.35, 0.65, 0.95])
        cell = (grid[:, None] + 1j * grid[None, :]).ravel()
        for z in (cell, np.array([0.5 + 1j, 1 + 0.5j])):
            for d in range(4):
                theta(z, EL, deriv_order=d)
        weierstrass_p(cell, EL, deriv_order=1)
        assert len(sizes) == 9
        assert max(sizes) <= 8


def brute_lattice_distance(z, tau):
    """Distance from z to Z + tau Z: the nearest point of row n is
    m = round(Re(z - n tau)), and a row more than 1 away from z in the
    imaginary direction cannot hold the nearest point."""
    y = np.floor(z.imag / tau.imag)
    reach = np.ceil(1.0 / tau.imag) + 2
    rows = np.arange(y - reach, y + reach + 1)
    w = z - rows * tau
    return np.min(np.abs(w - np.round(w.real)))


class TestLatticeDistance:
    @pytest.mark.parametrize("tau", [
        1j, 0.13 + 1.21j, 0.5 + 0.866j, 3.7 + 0.3j, -4.6 + 0.21j,
        0.05j, 0.37 + 0.05j, 2.5 + 0.07j, -0.49 + 0.06j,
    ])
    def test_matches_brute_force(self, tau):
        lat = LatticeParams(kind="elliptic", tau=tau)
        rng = np.random.default_rng(41)
        zs = rng.uniform(-4, 4, 300) + 1j * rng.uniform(-4, 4, 300)
        got = lat.lattice_distance(zs)
        want = np.array([brute_lattice_distance(z, tau) for z in zs])
        assert np.max(np.abs(got - want)) <= 1e-12
        assert float(lat.lattice_distance(zs[0])) == got[0]

    def test_skewed_tau(self):
        lat = LatticeParams(kind="elliptic", tau=3.7 + 0.3j)
        # the four corners of the skewed cell around z are all farther
        # than the lattice point 0
        assert abs(lat.lattice_distance(0.2 + 0.25j) - abs(0.2 + 0.25j)) < 1e-15
        far = 0.2 + 0.25j + 17 - 9 * lat.tau
        assert abs(lat.lattice_distance(far) - abs(0.2 + 0.25j)) < 1e-12
        assert abs(lat.shortest_period - abs(lat.tau - 4)) < 1e-15


class TestEisenstein:
    def test_rational_is_inverse(self):
        assert abs(eisenstein_e1(0.5, RA) - 2.0) < 1e-15
        assert abs(eisenstein_e1(2j, RA) + 0.5j) < 1e-15

    def test_trigonometric_frozen(self):
        # coth(2)
        assert abs(eisenstein_e1(2.0, TR) - 1.0373147207275480959) < 1e-15

    def test_elliptic_frozen(self):
        assert abs(eisenstein_e1(0.4, EL) - 1.0345430800304279019) < 1e-14

    def test_odd_all_kinds(self):
        for par, _ in ALL_KINDS:
            z = 0.37 + 0.19j
            assert abs(eisenstein_e1(z, par) + eisenstein_e1(-z, par)) < 1e-13

    def test_is_log_derivative_of_theta(self):
        z = 0.29 + 0.4j
        want = theta(z, EL, deriv_order=1) / theta(z, EL)
        assert abs(eisenstein_e1(z, EL) - want) < 1e-14

    def test_derivatives_against_finite_differences(self):
        for par, _ in ALL_KINDS:
            z = 0.43 + 0.21j
            for order in (1, 2, 3):
                fd = fd4(lambda x: eisenstein_e1(x, par, order - 1), z, 1e-3)
                got = eisenstein_e1(z, par, order)
                assert abs(got - fd) <= 1e-8 * (1 + abs(got))

    def test_order_out_of_range(self):
        with pytest.raises(UnsupportedDerivOrder):
            eisenstein_e1(0.3, RA, deriv_order=8)

    def test_deriv_order_must_be_an_integer(self):
        # named before the range check, even for a float out of range
        for order in (2.0, 99.5, "1"):
            message = f"^deriv_order must be an integer, got {order!r}"
            with pytest.raises(UsageError, match=message):
                eisenstein_e1(0.3, RA, deriv_order=order)
        assert eisenstein_e1(0.3, EL, np.int32(2)) == eisenstein_e1(0.3, EL, 2)

    @pytest.mark.parametrize("size", [1e150, 1e200, 1e300])
    def test_rational_far_from_the_pole(self, size):
        # numpy's complex power overflows to nan where |z|^(d+1) passes the
        # float range; the values underflow there
        for z in (size, size * (-0.6 + 0.8j)):
            want = [(-1) ** d * math.factorial(d) * (1 / complex(z)) ** (d + 1)
                    for d in range(MAX_WP_DERIV_ORDER + 2)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                e1 = [eisenstein_e1(z, RA, d) for d in range(len(want))]
                wp = [weierstrass_p(z, RA, d) for d in range(len(want) - 1)]
            for got, w in zip(e1 + wp, want + [-v for v in want[1:]]):
                assert abs(got - w) <= 1e-14 * abs(w)

    def test_coth_polynomials_match_numpy_polynomial(self):
        want = np.array([0.0, 1.0])
        for d in range(MAX_WP_DERIV_ORDER + 2):
            assert special_functions._coth_poly(d) == tuple(want)
            want = P.polymul(P.polyder(want), (1.0, 0.0, -1.0))

    def test_trigonometric_derivatives_bit_identical_to_polyval(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-3, 3, 500) + 1j * rng.uniform(-1.5, 1.5, 500)
        coth = 1.0 / np.tanh(z)
        coeffs = np.array([0.0, 1.0])
        for d in range(MAX_WP_DERIV_ORDER + 2):
            want = P.polyval(coth, coeffs)
            got = eisenstein_e1(z, TR, d)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            coeffs = P.polymul(P.polyder(coeffs), (1.0, 0.0, -1.0))

    def test_pole_rejected(self):
        with pytest.raises(PoleProximity):
            eisenstein_e1(1e-9, RA)
        with pytest.raises(PoleProximity):
            eisenstein_e1(1.0 + 1e-8, EL)
        with pytest.raises(PoleProximity):
            eisenstein_e1(1j * np.pi + 1e-8, TR)


class TestWeierstrass:
    def test_rational_closed_forms(self):
        assert abs(weierstrass_p(0.5, RA) - 4.0) < 1e-15
        # second derivative 6/z^4 at z = 1.5
        assert abs(weierstrass_p(1.5, RA, 2) - 1.1851851851851851852) < 1e-15

    def test_trigonometric_closed_form(self):
        z = 0.7 + 0.2j
        assert abs(weierstrass_p(z, TR) - 1 / np.sinh(z) ** 2) < 1e-14

    def test_elliptic_frozen(self):
        assert abs(weierstrass_p(0.35, EL) - 9.3773190261343050065) < 1e-13

    def test_deriv_order_must_be_an_integer(self):
        # named before the range check, even for a float out of range
        for order in (2.0, -3.0, "0"):
            message = f"^deriv_order must be an integer, got {order!r}"
            with pytest.raises(UsageError, match=message):
                weierstrass_p(0.35, TR, deriv_order=order)
        assert weierstrass_p(0.35, EL, np.int64(2)) == weierstrass_p(0.35, EL, 2)

    def test_even_all_kinds(self):
        for par, _ in ALL_KINDS:
            z = 0.41 + 0.23j
            assert abs(weierstrass_p(z, par) - weierstrass_p(-z, par)) < 1e-13

    def test_double_pole_normalization(self):
        # wp(z) - 1/z^2 vanishes at the origin, quadratically
        a = weierstrass_p(0.01, EL) - 1e4
        b = weierstrass_p(0.005, EL) - 4e4
        assert abs(a) < 1e-2
        assert abs(a / b - 4) < 0.05

    def test_derivative_fd_order_study(self):
        for par, _ in ALL_KINDS:
            z = 0.52 + 0.31j
            exact = weierstrass_p(z, par, 1)
            e1 = abs(fd4(lambda x: weierstrass_p(x, par), z, 1e-2) - exact)
            e2 = abs(fd4(lambda x: weierstrass_p(x, par), z, 5e-3) - exact)
            # fourth order stencil: error ratio near 16
            assert e1 / max(e2, 1e-16) > 10 or e1 < 1e-12

    def test_higher_derivatives_chain(self):
        for par, _ in ALL_KINDS:
            z = 0.44 + 0.27j
            for order in (2, 4, 6):
                fd = fd4(lambda x: weierstrass_p(x, par, order - 1), z, 1e-3)
                got = weierstrass_p(z, par, order)
                assert abs(got - fd) <= 1e-7 * (1 + abs(got))

    def test_order_cap(self):
        with pytest.raises(UnsupportedDerivOrder):
            weierstrass_p(0.3, RA, deriv_order=7)
        with pytest.raises(UnsupportedDerivOrder):
            weierstrass_p(0.3, RA, deriv_order=-1)


class TestKroneckerPhi:
    def test_rational_closed_form(self):
        assert abs(kronecker_phi(0.5, 0.25, RA) - 6.0) < 1e-15

    def test_trigonometric_closed_form(self):
        e, z = 0.4 + 0.1j, 0.7 - 0.2j
        want = 1 / np.tanh(e) + 1 / np.tanh(z)
        assert abs(kronecker_phi(e, z, TR) - want) < 1e-14

    def test_elliptic_is_theta_ratio(self):
        e, z = 0.21 + 0.14j, 0.37 + 0.28j
        want = theta(0.0, EL, 1) * theta(e + z, EL) / (theta(e, EL) * theta(z, EL))
        assert abs(kronecker_phi(e, z, EL) - want) < 1e-14

    def test_symmetric_in_slots(self):
        for par, _ in ALL_KINDS:
            e, z = 0.31 + 0.11j, 0.52 + 0.23j
            assert abs(kronecker_phi(e, z, par) - kronecker_phi(z, e, par)) < 1e-13

    def test_slot_derivative_vs_fd(self):
        for par, _ in ALL_KINDS:
            e, z = 0.33 + 0.21j, 0.61 + 0.13j
            fd = fd4(lambda x: kronecker_phi(x, z, par), e, 1e-3)
            got = kronecker_phi_deta(e, z, par)
            assert abs(got - fd) <= 1e-8 * (1 + abs(got))

    def test_slot_derivative_shift_form(self):
        # (E1(z+y) - E1(y)) phi(e, z) - phi(e, z+y) phi(e, -y) reproduces
        # the slot derivative for any shift y
        for par, _ in ALL_KINDS:
            e, z = 0.29 + 0.17j, 0.57 + 0.09j
            for y in (0.23 + 0.31j, 0.11 - 0.21j):
                lhs = (eisenstein_e1(z + y, par) - eisenstein_e1(y, par)) * \
                    kronecker_phi(e, z, par) - \
                    kronecker_phi(e, z + y, par) * kronecker_phi(e, -y, par)
                want = kronecker_phi_deta(e, z, par)
                assert abs(lhs - want) <= 1e-12 * (1 + abs(want))

    def test_laurent_pole_and_constant_term(self):
        # leading terms 1/eta + E1(z) hold for every kind
        z = 0.47 + 0.22j
        for par, _ in ALL_KINDS:
            for eta in (1e-3, 5e-4):
                g = kronecker_phi(eta, z, par) - 1 / eta - eisenstein_e1(z, par)
                assert abs(g) < 1e-2

    def test_laurent_linear_term_elliptic(self):
        # next coefficient is (E1(z)^2 - wp(z)) / 2 in the doubly periodic case
        z = 0.47 + 0.22j
        c2 = (eisenstein_e1(z, EL) ** 2 - weierstrass_p(z, EL)) / 2

        def slope(eta):
            g = kronecker_phi(eta, z, EL) - 1 / eta - eisenstein_e1(z, EL)
            return g / eta

        # extrapolate away the linear-in-eta truncation error
        refined = 2 * slope(5e-4) - slope(1e-3)
        assert abs(refined - c2) <= 1e-5 * (1 + abs(c2))

    def test_laurent_linear_term_degenerations(self):
        # the degenerate kinds fix the linear coefficient by convention:
        # zero for 1/eta + 1/z, 1/3 from the coth series
        z = 0.47 + 0.22j
        eta = 1e-3
        g_ra = kronecker_phi(eta, z, RA) - 1 / eta - eisenstein_e1(z, RA)
        assert abs(g_ra / eta) < 1e-8
        g_tr = kronecker_phi(eta, z, TR) - 1 / eta - eisenstein_e1(z, TR)
        assert abs(g_tr / eta - 1 / 3) < 1e-6

    def test_broadcasts(self):
        zs = np.array([0.3 + 0.1j, 0.6 + 0.2j])
        vals = kronecker_phi(0.25, zs, RA)
        assert vals.shape == (2,)
        assert abs(vals[0] - kronecker_phi(0.25, zs[0], RA)) < 1e-15

    @pytest.mark.parametrize("phi", [kronecker_phi, kronecker_phi_deta])
    def test_shapes_that_do_not_broadcast_raise(self, phi):
        eta = np.array([0.3 + 0.1j, 0.6 + 0.2j])
        z = np.array([0.25 + 0.1j, 0.35 + 0.2j, 0.45 + 0.3j])
        for lat in (RA, TR, EL):
            assert phi(eta[:, None], z, lat).shape == (2, 3)
            with pytest.raises(DimensionMismatch, match=r"\(2,\) and \(3,\)"):
                phi(eta, z, lat)

    def test_pole_rejected_in_either_slot_and_sum(self):
        with pytest.raises(PoleProximity):
            kronecker_phi(1e-9, 0.3, RA)
        with pytest.raises(PoleProximity):
            kronecker_phi(0.3, 1e-9, RA)
        with pytest.raises(PoleProximity):
            kronecker_phi(0.3, -0.3, RA)
        with pytest.raises(PoleProximity):
            kronecker_phi(0.4, 0.6, EL)


class TestFay:
    def test_random_samples(self):
        rng = np.random.default_rng(42)
        bounds = {"rational": 1e-12, "trigonometric": 1e-12, "elliptic": 1e-11}
        for par, kind in ALL_KINDS:
            tau = par.tau
            for _ in range(100):
                if kind == "elliptic":
                    z, w = (rng.uniform(0.1, 0.9) + rng.uniform(0.05, 0.45) * tau
                            for _ in range(2))
                    h, e = (rng.uniform(0.1, 0.4) + rng.uniform(0.05, 0.4) * tau
                            for _ in range(2))
                else:
                    z, w = (rng.uniform(0.3, 1.5) + 1j * rng.uniform(0.1, 0.8)
                            for _ in range(2))
                    h, e = (rng.uniform(0.3, 1.0) + 1j * rng.uniform(0.1, 0.5)
                            for _ in range(2))
                if abs(h - e) < 1e-2:
                    continue
                assert fay_check(h, e, z, w, par) < bounds[kind]

    def test_degenerate_form(self):
        for par, kind in ALL_KINDS:
            h = 0.31 + 0.21j
            assert fay_check(h, h, 0.41 + 0.11j, 0.23 + 0.33j, par) < 1e-12

    def test_near_degenerate_rejected(self):
        with pytest.raises(DegenerateArguments):
            fay_check(0.31, 0.31 + 1e-8, 0.41, 0.23, RA)

    def test_arguments_must_be_scalars(self):
        with pytest.raises(DimensionMismatch, match=r"^z must be a scalar, got shape \(2,\)"):
            fay_check(0.31, 0.2, np.array([0.41, 0.5]), 0.23, EL)
        with pytest.raises(UsageError, match="^eta must be a complex number, got 'x'"):
            fay_check(0.31, "x", 0.41, 0.23, EL)
        with pytest.raises(DimensionMismatch, match=r"^tau must be a scalar, got shape \(2,\)"):
            LatticeParams(kind="elliptic", tau=np.array([1j, 2j]))
        # an array point had raised numpy's bare ValueError or TypeError
        with pytest.raises(DimensionMismatch, match=r"^a point must be a scalar, got shape \(2,\)"):
            scalar_cyclic_sum(3, 1, 0.2 + 0.1j, [np.array([0.1, 0.2]), 0.3, 0.5], EL)


class TestScalarCyclicSum:
    def test_two_point_case(self):
        for par, _ in ALL_KINDS:
            eta = 0.27 + 0.13j
            pts = [0.31 + 0.21j, 0.62 + 0.08j]
            got = scalar_cyclic_sum(2, 1, eta, pts, par)
            want = weierstrass_p(eta, par) - weierstrass_p(pts[0] - pts[1], par)
            assert abs(got - want) <= 1e-12 * (1 + abs(want))

    def test_point_independence_and_value(self):
        rng = np.random.default_rng(7)
        for par, kind in ALL_KINDS:
            eta = 0.23 + 0.11j
            for n in (3, 4, 5):
                want = (-1) ** n * weierstrass_p(eta, par, deriv_order=n - 2)
                vals = []
                for _ in range(2):
                    if kind == "elliptic":
                        pts = rng.uniform(0.1, 0.9, n) + rng.uniform(
                            0.05, 0.45, n) * par.tau
                    else:
                        pts = rng.uniform(0.2, 3.0, n) + 1j * rng.uniform(
                            0.1, 1.2, n)
                    vals.append(scalar_cyclic_sum(n, 1, eta, list(pts), par))
                for v in vals:
                    assert abs(v - want) <= 1e-9 * (1 + abs(want))
                assert abs(vals[0] - vals[1]) <= 1e-9 * (1 + abs(want))

    def test_outer_index_irrelevant(self):
        par = ALL_KINDS[2][0]
        eta = 0.19 + 0.23j
        pts = [0.31 + 0.21 * par.tau, 0.52 + 0.11 * par.tau, 0.83 + 0.37 * par.tau,
               0.44 + 0.29 * par.tau]
        a1 = scalar_cyclic_sum(4, 1, eta, pts, par)
        a3 = scalar_cyclic_sum(4, 3, eta, pts, par)
        assert abs(a1 - a3) <= 1e-10 * (1 + abs(a1))

    @pytest.mark.parametrize("par", [RA, ALL_KINDS[2][0]], ids=["rational", "elliptic"])
    def test_subset_dp_matches_the_literal_sum(self, par):
        # every outer index a at n = 2..8, against the (n-1)! orderings
        rng = np.random.default_rng(3)
        eta = 0.23 + 0.11j
        for n in range(2, 9):
            if par.kind is FunctionKind.ELLIPTIC:
                pts = rng.uniform(0.1, 0.9, n) + rng.uniform(0.05, 0.45, n) * par.tau
            else:
                pts = rng.uniform(0.2, 3.0, n) + 1j * rng.uniform(0.1, 1.2, n)
            pts = list(pts)
            if n >= 3:
                wp = (-1) ** n * weierstrass_p(eta, par, deriv_order=n - 2)
            for a in range(1, n + 1):
                got = scalar_cyclic_sum(n, a, eta, pts, par)
                want = literal_cyclic_sum(n, a, eta, pts, par)
                assert abs(got - want) <= 1e-13 * abs(want)
                if n >= 3:
                    assert abs(got - wp) <= 1e-12 * abs(wp)

    def test_beyond_the_literal_sum(self):
        # n = 10 has 9! = 362880 orderings; the DP takes a few ms
        pts = [0.1 + 0.07j * k + 0.13 * k for k in range(10)]
        for par in (RA, ALL_KINDS[2][0]):
            assert np.isfinite(scalar_cyclic_sum(10, 1, 0.23 + 0.11j, pts, par))

    def test_index_validation(self):
        pts = [0.3, 1.1 + 0.4j, 2.2]
        with pytest.raises(IndexOutOfRange):
            scalar_cyclic_sum(3, 0, 0.2, pts, RA)
        with pytest.raises(IndexOutOfRange):
            scalar_cyclic_sum(3, 4, 0.2, pts, RA)
        with pytest.raises(IndexOutOfRange):
            scalar_cyclic_sum(1, 1, 0.2, [0.3], RA)
        with pytest.raises(DimensionMismatch):
            scalar_cyclic_sum(3, 1, 0.2, pts + [0.5], RA)

    def test_site_arguments_must_be_integers(self):
        pts = [0.3, 1.1 + 0.4j, 2.2, 0.7 + 1.1j]
        with pytest.raises(UsageError, match="^a must be an integer, got 1.5"):
            scalar_cyclic_sum(4, 1.5, 0.2, pts, RA)
        with pytest.raises(UsageError, match="^n must be an integer, got 4.0"):
            scalar_cyclic_sum(4.0, 1, 0.2, pts, RA)
        assert scalar_cyclic_sum(np.int64(4), np.int32(2), 0.2, pts, RA) == (
            scalar_cyclic_sum(4, 2, 0.2, pts, RA))
