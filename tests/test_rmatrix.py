import warnings

import numpy as np
import pytest

from rmx import (
    ContourHitsPole,
    DimensionMismatch,
    LatticeParams,
    NonEllipticKind,
    PoleProximity,
    QuadratureNotConverged,
    RMatrixSpec,
    SeriesNotConverged,
    UsageError,
    ZeroArgument,
    classical_closed_form,
    classical_expansion,
    errors,
    kronecker_phi,
    permutation_operator,
    r_deriv_hbar,
    r_matrix,
    r_same_site,
    rmatrix,
    same_site_closed_form,
    structure_phase,
    t_basis,
    weierstrass_p,
    yang_r,
)

RA = LatticeParams(kind="rational")
EL = LatticeParams(kind="elliptic", tau=1j)
ELG = LatticeParams(kind="elliptic", tau=0.17 + 1.24j)


def yang_spec(N=2, hbar=0.37 + 0.21j):
    return RMatrixSpec(kind="yang", site_dim=N, lattice=RA, hbar=hbar)


def belavin_spec(N=2, hbar=0.17 + 0.09j, lattice=EL):
    return RMatrixSpec(kind="belavin", site_dim=N, lattice=lattice, hbar=hbar)


def manual_elliptic_r(spec, z):
    # independent assembly of the weighted basis sum
    N = spec.site_dim
    lat = spec.lattice
    out = np.zeros((N * N, N * N), dtype=complex)
    for a1 in range(N):
        for a2 in range(N):
            w = (a1 + a2 * lat.tau) / N
            c = np.exp(2j * np.pi * a2 * z / N) * kronecker_phi(
                z, w + spec.hbar, lat
            )
            out += c * np.kron(t_basis(a1, a2, N), t_basis(-a1, -a2, N))
    return out


def fd4_matrix(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


class TestBasisMatrices:
    def test_zero_index_is_identity(self):
        for N in (1, 2, 3):
            assert np.allclose(t_basis(0, 0, N), np.eye(N))

    def test_unitary(self):
        for N in (2, 3):
            for a in ((1, 0), (0, 1), (1, 2), (-1, 1)):
                t = t_basis(a[0], a[1], N)
                assert np.allclose(t @ t.conj().T, np.eye(N))

    def test_product_rule_with_raw_integers(self):
        span = (-1, 0, 1, 2)
        for N in (2, 3):
            for a1 in span:
                for a2 in span:
                    for b1 in span:
                        for b2 in span:
                            lhs = t_basis(a1, a2, N) @ t_basis(b1, b2, N)
                            kappa = structure_phase((a1, a2), (b1, b2), N)
                            rhs = kappa * t_basis(a1 + b1, a2 + b2, N)
                            assert np.allclose(lhs, rhs, rtol=0, atol=1e-13)

    def test_frozen_structure_scalar(self):
        assert abs(structure_phase((1, 0), (0, 1), 2) - (-1j)) < 1e-15

    def test_inverse_pairs(self):
        for N in (2, 3):
            for a in ((1, 0), (0, 1), (1, 1), (2, 1), (-1, 2)):
                prod = t_basis(a[0], a[1], N) @ t_basis(-a[0], -a[1], N)
                assert np.allclose(prod, np.eye(N), rtol=0, atol=1e-14)

    def test_trace_orthogonality(self):
        N = 3
        grid = [(a1, a2) for a1 in range(N) for a2 in range(N)]
        for a in grid:
            for b in grid:
                tr = np.trace(t_basis(a[0], a[1], N) @ t_basis(-b[0], -b[1], N))
                want = N if a == b else 0.0
                assert abs(tr - want) < 1e-12

    def test_bad_size(self):
        for f in (lambda N: t_basis(1, 0, N), lambda N: structure_phase((1, 0), (0, 1), N)):
            for N in (0, -2):
                with pytest.raises(UsageError, match=f"^N must be >= 1, got {N}"):
                    f(N)
            for N in (2.0, 2.5, "2"):
                with pytest.raises(UsageError, match=f"^N must be an integer, got {N!r}"):
                    f(N)
            assert np.array_equal(f(np.int64(3)), f(3))

    def test_fractional_index_rejected(self):
        for call, name in (
            (lambda: t_basis(1.5, 0, 2), "a1"),
            (lambda: t_basis(1, 0.5, 2), "a2"),
            (lambda: structure_phase((0.5, 0), (0, 1), 2), r"alpha\[0\]"),
            (lambda: structure_phase((0, 1), (1, 1.0), 2), r"beta\[1\]"),
        ):
            with pytest.raises(UsageError, match=f"^{name} must be an integer"):
                call()
        assert np.array_equal(t_basis(np.int64(1), np.int32(1), 2), t_basis(1, 1, 2))
        assert structure_phase(np.array([1, 0]), (0, np.int64(1)), 2) == (
            structure_phase((1, 0), (0, 1), 2))


class TestYangFamily:
    def test_closed_form(self):
        N, z, h = 2, 0.7 + 0.3j, 0.4 - 0.2j
        want = np.eye(N * N) / h + (N / z) * permutation_operator(N)
        assert np.allclose(yang_r(z, h, N), want, rtol=0, atol=1e-15)

    def test_bad_size(self):
        for N in (2.5, "2"):
            with pytest.raises(UsageError, match=f"^N must be an integer, got {N!r}"):
                yang_r(0.3, 0.2, N)
        with pytest.raises(UsageError, match="^N must be >= 1, got 0"):
            yang_r(0.3, 0.2, 0)
        assert np.array_equal(yang_r(0.3, 0.2, np.int64(2)), yang_r(0.3, 0.2, 2))

    def test_dispatch(self):
        spec = yang_spec(3)
        z = 1.3 + 0.4j
        assert np.array_equal(
            r_matrix(spec, z), yang_r(z, spec.hbar, 3)
        )

    def test_hbar_override(self):
        spec = yang_spec(2)
        z = 0.9
        other = 1.1 + 0.2j
        assert np.allclose(r_matrix(spec, z, hbar=other), yang_r(z, other, 2))

    def test_zero_hbar_rejected(self):
        with pytest.raises(ZeroArgument):
            yang_spec(hbar=0.0)
        spec = yang_spec()
        with pytest.raises(ZeroArgument):
            r_matrix(spec, 0.5, hbar=0.0)

    def test_non_finite_arguments_raise(self):
        spec = yang_spec()
        for z, hbar in ((np.nan, None), (complex(np.inf, 1), None), (0.5, np.nan)):
            with pytest.raises(SeriesNotConverged):
                r_matrix(spec, z, hbar=hbar)
        with pytest.raises(SeriesNotConverged, match="hbar"):
            yang_r([0.5, 0.7], [0.3, np.inf], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.3, -np.inf)])
    def test_non_finite_hbar_rejected(self, bad):
        with pytest.raises(SeriesNotConverged, match="hbar"):
            yang_spec(hbar=bad)
        spec = yang_spec()
        with pytest.raises(SeriesNotConverged, match="hbar"):
            r_same_site(spec, 0.5, hbar=bad)
        with pytest.raises(SeriesNotConverged, match="hbar"):
            same_site_closed_form(spec, 0.5, hbar=bad)

    def test_site_dim_must_be_a_positive_integer(self):
        for bad, message in ((2.5, "an integer, got 2.5"), ("2", "an integer, got '2'"),
                             (0, ">= 1, got 0"), (-1, ">= 1, got -1")):
            with pytest.raises(UsageError, match=f"^site_dim must be {message}"):
                RMatrixSpec(kind="yang", site_dim=bad, lattice=RA, hbar=0.3)
        spec = RMatrixSpec(kind="yang", site_dim=np.int64(2), lattice=RA, hbar=0.3)
        assert type(spec.site_dim) is int and spec == yang_spec(2, hbar=0.3)

    def test_wrong_lattice_kind(self):
        with pytest.raises(UsageError):
            RMatrixSpec(kind="yang", site_dim=2, lattice=EL, hbar=0.3)
        tr = LatticeParams(kind="trigonometric")
        with pytest.raises(UsageError):
            RMatrixSpec(kind="yang", site_dim=2, lattice=tr, hbar=0.3)


class TestEllipticFamily:
    def test_rank_one_collapses_to_scalar_kernel(self):
        spec = belavin_spec(N=1, hbar=0.21 + 0.13j)
        z = 0.43 + 0.27j
        got = r_matrix(spec, z)
        assert got.shape == (1, 1)
        want = kronecker_phi(z, spec.hbar, EL)
        assert abs(got[0, 0] - want) < 1e-13 * (1 + abs(want))

    def test_matches_manual_assembly(self):
        for N, lat in ((1, EL), (1, ELG), (2, EL), (3, ELG)):
            spec = belavin_spec(N=N, lattice=lat)
            z = 0.39 + 0.18j
            got = r_matrix(spec, z)
            want = manual_elliptic_r(spec, z)
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_unitarity_product(self):
        for N in (2, 3):
            spec = belavin_spec(N=N)
            z = 0.41 + 0.23j
            perm = permutation_operator(N)
            prod = r_matrix(spec, z) @ (perm @ r_matrix(spec, -z) @ perm)
            coeff = N * N * (
                weierstrass_p(N * spec.hbar, EL) - weierstrass_p(z, EL)
            )
            assert np.allclose(prod, coeff * np.eye(N * N), rtol=0, atol=5e-12 * abs(coeff))

    def test_skew_symmetry(self):
        spec = belavin_spec(N=2)
        z = 0.33 + 0.21j
        perm = permutation_operator(2)
        flipped = RMatrixSpec(kind="belavin", site_dim=2, lattice=EL,
                              hbar=-spec.hbar)
        lhs = r_matrix(spec, z)
        rhs = -perm @ r_matrix(flipped, -z) @ perm
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_needs_elliptic_lattice(self):
        with pytest.raises(NonEllipticKind):
            RMatrixSpec(kind="belavin", site_dim=2, lattice=RA, hbar=0.2)

    def test_hbar_pole_rejected(self):
        # N * hbar = 1.0 sits on the lattice
        with pytest.raises(PoleProximity):
            belavin_spec(N=2, hbar=0.5)
        spec = belavin_spec(N=2)
        with pytest.raises(PoleProximity):
            r_matrix(spec, 0.4 + 0.2j, hbar=0.5)


class TestShapes:
    # arrays of z and hbar broadcast; shapes that do not raise a typed error
    # naming both, in either family
    Z = np.array([0.3 + 0.1j, 0.45 + 0.2j, 0.6 + 0.3j])
    HBAR = np.array([0.17 + 0.09j, 0.21 + 0.13j])
    MISMATCH = r"z of shape \(3,\) and hbar of shape \(2,\) do not broadcast"

    @pytest.mark.parametrize("spec", [yang_spec(), belavin_spec()],
                             ids=["yang", "belavin"])
    def test_r_matrix(self, spec):
        assert r_matrix(spec, self.Z[:, None], self.HBAR).shape == (3, 2, 4, 4)
        with pytest.raises(DimensionMismatch, match=self.MISMATCH):
            r_matrix(spec, self.Z, self.HBAR)

    @pytest.mark.parametrize("spec", [yang_spec(), belavin_spec()],
                             ids=["yang", "belavin"])
    def test_same_site_closed_form(self, spec):
        assert same_site_closed_form(spec, self.Z[:, None], self.HBAR).shape == (3, 2)
        with pytest.raises(DimensionMismatch, match=self.MISMATCH):
            same_site_closed_form(spec, self.Z, self.HBAR)

    @pytest.mark.parametrize("spec", [yang_spec(), belavin_spec()],
                             ids=["yang", "belavin"])
    def test_same_site_closed_form_takes_lists(self, spec):
        # a list is an array, not a sequence that N * hbar would repeat
        z, hbar = list(self.Z), list(self.HBAR)
        assert np.array_equal(same_site_closed_form(spec, z),
                              same_site_closed_form(spec, self.Z))
        got = same_site_closed_form(spec, 0.3 + 0.1j, hbar)
        assert got.shape == (2,)
        assert np.array_equal(got, same_site_closed_form(spec, 0.3 + 0.1j, self.HBAR))

    @pytest.mark.parametrize("spec", [yang_spec(), belavin_spec()],
                             ids=["yang", "belavin"])
    def test_r_same_site_takes_scalars(self, spec):
        with pytest.raises(DimensionMismatch,
                           match=r"scalar z and hbar, got shapes \(3,\) and \(\)"):
            r_same_site(spec, self.Z)
        with pytest.raises(DimensionMismatch,
                           match=r"scalar z and hbar, got shapes \(\) and \(2,\)"):
            r_same_site(spec, 0.3 + 0.1j, list(self.HBAR))
        assert r_same_site(spec, np.array(0.3 + 0.1j)).shape == (2, 2)


class TestSameSite:
    def test_yang(self):
        spec = yang_spec(3, hbar=0.5)
        z = 1.2 + 0.3j
        mat = r_same_site(spec, z)
        want = 1 / 0.5 + 9 / z
        assert mat.shape == (3, 3)
        assert np.allclose(mat, want * np.eye(3), rtol=0, atol=1e-12 * abs(want))

    def test_elliptic_collapse(self):
        for N in (2, 3):
            spec = belavin_spec(N=N)
            z = 0.37 + 0.22j
            mat = r_same_site(spec, z)
            want = N * kronecker_phi(N * spec.hbar, z / N, EL)
            assert abs(same_site_closed_form(spec, z) - want) == 0.0
            assert np.allclose(mat, want * np.eye(N), rtol=0, atol=1e-10 * (1 + abs(want)))

    def test_override_is_validated(self):
        spec = belavin_spec(N=2)
        with pytest.raises(PoleProximity):
            r_same_site(spec, 0.4 + 0.1j, hbar=0.5)

    def test_zero_z_is_typed(self):
        with pytest.raises(ZeroArgument):
            r_same_site(yang_spec(2), 0)

    def test_non_finite_yang_z_raises(self):
        for z in (np.nan, complex(np.inf, 1)):
            with pytest.raises(SeriesNotConverged, match="finite z"):
                r_same_site(yang_spec(2), z)
            with pytest.raises(SeriesNotConverged, match="finite z"):
                same_site_closed_form(yang_spec(2), z)

    def test_closed_form_override_is_validated(self):
        with pytest.raises(PoleProximity):
            same_site_closed_form(belavin_spec(N=2), 0.4 + 0.1j, hbar=0.5)
        with pytest.raises(ZeroArgument):
            same_site_closed_form(yang_spec(2), 0.4 + 0.1j, hbar=0)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_weight_sum_matches_the_t_basis_sum(self, N):
        # T_a T_(-a) = Id collapses the sum over the basis to (sum w) Id
        spec, z = belavin_spec(N=N), 0.37 + 0.22j
        w = rmatrix._belavin_weights(spec, z, spec.hbar)
        want = np.zeros((N, N), dtype=complex)
        for coeff, (a1, a2) in zip(w, rmatrix._alpha_grid(N)):
            want += coeff * (t_basis(a1, a2, N) @ t_basis(-a1, -a2, N))
        got = r_same_site(spec, z)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
        assert np.array_equal(got, got[0, 0] * np.eye(N))


class TestHbarDerivative:
    def test_yang_exact(self):
        spec = yang_spec(2, hbar=0.8 + 0.1j)
        out = r_deriv_hbar(spec, 0.9, 0.1)
        assert np.allclose(out.matrix, -np.eye(4) / spec.hbar ** 2, rtol=0, atol=1e-14)
        assert out.structural_residual < 1e-12

    def test_elliptic_matches_finite_difference(self):
        spec = belavin_spec(N=2)
        z_a, z_b = 0.61 + 0.28j, 0.13 + 0.07j
        z = z_a - z_b

        def at(h):
            return r_matrix(spec, z, hbar=h)

        fd = fd4_matrix(at, spec.hbar, 1e-4)
        out = r_deriv_hbar(spec, z_a, z_b)
        scale = np.linalg.norm(out.matrix)
        assert np.linalg.norm(out.matrix - fd) < 1e-8 * scale
        assert out.structural_residual < 1e-12

    def test_aux_point_independence(self):
        spec = belavin_spec(N=3, lattice=ELG, hbar=0.11 + 0.07j)
        d1 = r_deriv_hbar(spec, 0.52 + 0.31j, 0.14 + 0.06j)
        d2 = r_deriv_hbar(spec, 0.52 + 0.31j, 0.14 + 0.06j,
                          aux_point=0.93 + 0.44j)
        assert np.array_equal(d1.matrix, d2.matrix)
        assert d1.structural_residual < 1e-12
        assert d2.structural_residual < 1e-12


class TestComplexArguments:
    """An array where a complex number belongs is a DimensionMismatch that
    names its shape, and it fails only its own request of a batch."""

    def test_deriv_hbar_takes_scalars(self):
        with pytest.raises(DimensionMismatch, match=r"^z_a must be a scalar, got shape \(2,\)"):
            r_deriv_hbar(belavin_spec(), np.array([0.3, 0.4]), 0.1)
        good, bad = (yang_spec(), 0.9, 0.1, None), (yang_spec(), 0.9, [0.1, 0.2], None)
        with pytest.raises(DimensionMismatch, match="^z_b must be a scalar"):
            rmatrix._hbar_derivatives([good, bad, good])
        got = errors._joint(rmatrix._hbar_derivatives, [good, bad, good], lambda _: None)
        assert type(got[1]) is DimensionMismatch
        assert got[0].structural_residual == got[2].structural_residual == (
            r_deriv_hbar(*good[:3]).structural_residual)

    def test_spec_takes_a_scalar_hbar(self):
        with pytest.raises(DimensionMismatch, match=r"^hbar must be a scalar, got shape \(2,\)"):
            RMatrixSpec(kind="yang", site_dim=2, lattice=RA, hbar=np.array([0.1, 0.2]))
        with pytest.raises(UsageError, match="^hbar must be a complex number, got 'x'"):
            RMatrixSpec(kind="belavin", site_dim=2, lattice=EL, hbar="x")

    def test_spec_copies_at_hbars_equal_checked_specs(self):
        for kind, lat in (("yang", RA), ("belavin", EL), ("belavin", ELG)):
            first = RMatrixSpec(kind=kind, site_dim=3, lattice=lat, hbar=0.11 + 0.07j)
            hbars = [0.13 + 0.05j, 0.21 + 0.02j, 0.09 + 0.1j]
            copies = rmatrix._at_hbars(first, hbars)
            assert copies == [RMatrixSpec(kind=kind, site_dim=3, lattice=lat, hbar=h)
                              for h in hbars]
            assert [type(c.hbar) for c in copies] == [complex] * 3
            assert first.hbar == 0.11 + 0.07j
        # one hbar on the lattice fails the check of all
        with pytest.raises(PoleProximity, match="^N\\*hbar"):
            rmatrix._at_hbars(belavin_spec(), [0.1 + 0.1j, 1 / 2])

    def test_classical_expansion_takes_a_scalar(self):
        for spec in (yang_spec(), belavin_spec()):
            with pytest.raises(DimensionMismatch, match=r"^z must be a scalar, got shape \(2,\)"):
                classical_expansion(spec, np.array([0.3, 0.4]))
            with pytest.raises(UsageError, match="^z must be a complex number, got None"):
                classical_expansion(spec, None)


# every public function of this module that converts a z or hbar argument to
# an array; a value numpy cannot make complex had raised numpy's bare
# ValueError or TypeError
MALFORMED = {
    "r_matrix-yang": (lambda: r_matrix(yang_spec(), "x"), "z"),
    "r_matrix-belavin": (lambda: r_matrix(belavin_spec(), "x"), "z"),
    "r_matrix-hbar": (lambda: r_matrix(belavin_spec(), 0.3, ["x"]), "hbar"),
    "yang_r": (lambda: yang_r(0.3, "x", 2), "hbar"),
    "validate_hbar": (lambda: belavin_spec().validate_hbar("x"), "hbar"),
    "same_site_closed_form": (lambda: same_site_closed_form(belavin_spec(), "x"), "z"),
    "same_site_closed_form-yang": (lambda: same_site_closed_form(yang_spec(), ["x"]), "z"),
    "r_same_site": (lambda: r_same_site(yang_spec(), "x"), "z"),
    "classical_closed_form": (lambda: classical_closed_form(belavin_spec(), "x"), "z"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_argument_is_a_usage_error(case):
    call, name = MALFORMED[case]
    with pytest.raises(UsageError, match=f"^{name} must be complex, got "):
        call()


class TestClassicalExpansion:
    def test_yang_closed_form(self):
        spec = yang_spec(2, hbar=0.6)
        z = 1.1 + 0.4j
        r_an, m_an = classical_closed_form(spec, z)
        assert np.allclose(r_an, (2 / z) * permutation_operator(2), rtol=0, atol=1e-15)
        assert np.array_equal(m_an, np.zeros((4, 4)))
        pair = classical_expansion(spec, z)
        assert pair.hbar_inverse_residual < 1e-12
        assert pair.extraction_residual < 1e-12
        assert pair.analytic_residual < 1e-12
        assert np.allclose(pair.r, r_an, rtol=0, atol=1e-12)
        assert np.linalg.norm(pair.m) < 1e-12

    def test_yang_closed_forms_screen_z(self):
        # the closed forms refuse the z that yang_r refuses, with no warning
        spec = yang_spec(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in (classical_closed_form, same_site_closed_form):
                for z in (np.nan, np.inf, complex(0.3, -np.inf)):
                    with pytest.raises(SeriesNotConverged, match="finite z"):
                        form(spec, z)
                for z in (0, 1e-320):
                    with pytest.raises(ZeroArgument, match="z != 0"):
                        form(spec, z)
            with pytest.raises(SeriesNotConverged, match="finite z"):
                classical_closed_form(spec, np.array([0.5, np.nan]))
            # N / z overflows below the floor, in r_matrix too
            with pytest.raises(ZeroArgument, match="z != 0"):
                r_matrix(spec, 1e-320)
            with pytest.raises(ZeroArgument, match="hbar != 0"):
                yang_spec(2, hbar=1e-320)

    def test_elliptic_quadrature_agrees_with_closed_form(self):
        for N, lat in ((1, EL), (1, ELG), (2, EL), (3, ELG)):
            spec = belavin_spec(N=N, lattice=lat)
            z = 0.44 + 0.19j
            pair = classical_expansion(spec, z)
            assert pair.hbar_inverse_residual < 1e-10
            assert pair.extraction_residual < 1e-10
            assert pair.analytic_residual < 1e-10

    def test_m_from_r_square(self):
        spec = belavin_spec(N=2)
        z = 0.52 + 0.24j
        r_an, m_an = classical_closed_form(spec, z)
        want = 0.5 * (r_an @ r_an - 4 * weierstrass_p(z, EL) * np.eye(4))
        assert np.allclose(m_an, want, rtol=0, atol=1e-10 * (1 + np.linalg.norm(want)))

    def test_r_skew(self):
        spec = belavin_spec(N=2)
        z = 0.47 + 0.13j
        perm = permutation_operator(2)
        r_pos = classical_closed_form(spec, z)[0]
        r_neg = classical_closed_form(spec, -z)[0]
        assert np.allclose(r_pos, -perm @ r_neg @ perm, rtol=0, atol=1e-12)

    def test_contour_pole_guard(self):
        spec = belavin_spec(N=2)
        with pytest.raises(ContourHitsPole):
            classical_expansion(spec, 0.4 + 0.2j, contour_radius=0.5)
        with pytest.raises(ContourHitsPole):
            classical_expansion(spec, 0.4 + 0.2j, contour_radius=-1.0)
        # at N = 1 the nearest hbar pole is the shortest period: 1 at
        # tau = i, |tau - 4| = 0.424 at a skewed tau = 3.7 + 0.3i
        with pytest.raises(ContourHitsPole):
            classical_expansion(belavin_spec(N=1), 0.4 + 0.2j, contour_radius=0.95)
        skewed = LatticeParams(kind="elliptic", tau=3.7 + 0.3j)
        with pytest.raises(ContourHitsPole):
            classical_expansion(belavin_spec(N=1, lattice=skewed), 0.4 + 0.2j,
                                contour_radius=0.4)

    def test_default_radius_scales_with_N(self):
        # the nearest hbar pole besides 0 is a shortest period over N away:
        # 0.0265 at tau = 3.7 + 0.3i and N = 16, inside the fixed 0.025 that
        # the default radius was before it took N into account
        skewed = LatticeParams(kind="elliptic", tau=3.7 + 0.3j)
        spec = belavin_spec(N=16, hbar=0.011 + 0.003j, lattice=skewed)
        radius = rmatrix._default_radius(spec, 0.3 + 0.1j)
        assert radius == skewed.shortest_period / 64
        with pytest.raises(ContourHitsPole):
            classical_expansion(spec, 0.3 + 0.1j, contour_radius=0.025)
        try:
            pair = classical_expansion(spec, 0.3 + 0.1j, quadrature_points=16)
        finally:
            # the N = 16 T-tensor stack alone holds 256 MB
            rmatrix._tt_stack.cache_clear()
        assert pair.hbar_inverse_residual < 1e-10
        assert pair.extraction_residual < 1e-8
        assert pair.analytic_residual < 1e-10
        # at tau = i and N <= 4 the fixed radius is the smaller one
        for N in (1, 2, 3, 4):
            assert rmatrix._default_radius(belavin_spec(N=N), 0.3) == 0.025

    @staticmethod
    def assert_within_sum_bound(got, weights, vals, want):
        # a k-term sum rounds by at most about k eps times the sum of the
        # terms' magnitudes (Higham 2002, section 4.2); 2 k eps covers the
        # complex products, and the trapezoid rule divides by k
        k = len(weights)
        scale = np.einsum("k,k...->...", np.abs(weights), np.abs(vals)) / k
        eps = np.finfo(float).eps
        assert (np.abs(got - want) <= 2 * k * eps * scale).all()

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_trapezoid_sums_round_like_a_plain_loop(self, N):
        # the node sums agree with a Python loop of complex products in
        # node order to within the rounding bound of a k-term sum
        spec = belavin_spec(N=N)
        nodes = rmatrix._contour(spec, 0.025, 32)
        vals = r_matrix(spec, 0.44 + 0.19j, nodes)
        got = rmatrix._laurent_coefficients(nodes, vals)
        for j in (-1, 0, 1):
            weights = (nodes ** (-j)).tolist()
            want = np.empty(vals.shape[1:], dtype=complex)
            for idx in np.ndindex(*want.shape):
                acc = 0j
                for w, v in zip(weights, vals[(slice(None),) + idx].tolist()):
                    acc += w * v
                want[idx] = acc
            self.assert_within_sum_bound(got[j], nodes ** (-j), vals, want / len(nodes))

    @pytest.mark.parametrize("N", [1, 2, 16])
    def test_node_sums_add_in_node_order(self, N):
        # node values spread over six decades, so the bound is per entry
        rng = np.random.default_rng(N)
        nodes = 0.3 * np.exp(2j * np.pi * np.arange(64) / 64)
        shape = (64, N * N, N * N)
        vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 10.0 ** rng.uniform(-3, 3, (64, 1, 1))
        got = rmatrix._laurent_coefficients(nodes, vals)
        for j in (-1, 0, 1):
            w = nodes ** (-j)
            re, im = np.zeros(shape[1:]), np.zeros(shape[1:])
            for k in range(64):
                re += w[k].real * vals[k].real - w[k].imag * vals[k].imag
                im += w[k].real * vals[k].imag + w[k].imag * vals[k].real
            self.assert_within_sum_bound(got[j], w, vals, (re + 1j * im) / 64)

    def test_too_few_nodes(self):
        spec = yang_spec(2)
        with pytest.raises(QuadratureNotConverged):
            classical_expansion(spec, 0.8, quadrature_points=4)
        with pytest.raises(UsageError, match="^quadrature_points must be an integer"):
            classical_expansion(spec, 0.8, quadrature_points=16.5)
