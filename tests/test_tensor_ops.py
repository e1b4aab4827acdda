import itertools
import math

import numpy as np
import pytest

from rmx import tensor_ops
from rmx import (
    DimensionMismatch,
    UsageError,
    frobenius_distance,
    is_scalar_operator,
    permutation_operator,
)
from rmx.tensor_ops import _plan, _plan_sides, _probe_block, _probe_jobs, _probe_scalar, _run

from dense_oracle import embed_two_site


class TestPermutation:
    def test_frozen_matrix_two_dim(self):
        want = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.array_equal(permutation_operator(2), want)

    def test_swaps_product_vectors(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            p = permutation_operator(n)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.allclose(p @ np.kron(u, v), np.kron(v, u))

    def test_size_must_be_a_positive_integer(self):
        for bad in (0, -1):
            with pytest.raises(UsageError, match=f"^site_dim must be >= 1, got {bad}"):
                permutation_operator(bad)
        with pytest.raises(UsageError, match="^site_dim must be an integer, got 2.0"):
            permutation_operator(2.0)
        assert np.array_equal(permutation_operator(np.int64(1)), np.ones((1, 1)))

    def test_involution(self):
        for n in (2, 3):
            p = permutation_operator(n)
            assert np.allclose(p @ p, np.eye(n * n))

    def test_conjugation_swaps_factors(self):
        rng = np.random.default_rng(5)
        n = 3
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = permutation_operator(n)
        assert np.allclose(p @ np.kron(a, b) @ p, np.kron(b, a))


def apply_two_site(op, site_a, site_b, n_sites, x):
    """op applied at the 1-based sites (site_a, site_b) of the n-site operand
    x by a one-edge plan of the contraction code."""
    plan = _plan(n_sites, [("x", "y", (site_a - 1, site_b - 1), "op")], ["y"])
    return _run(plan, [([op], 0)], x)[0, 0]


def embedded(op, site_a, site_b, n_sites):
    """The matrix of op at the given sites, by applying it to the identity."""
    dim = math.isqrt(op.shape[0]) ** n_sites
    return apply_two_site(op, site_a, site_b, n_sites, np.eye(dim, dtype=complex))


def random_op(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestEmbed:
    def test_two_site_identity_case(self):
        rng = np.random.default_rng(11)
        op = random_op(rng, (4, 4))
        out = embedded(op, 1, 2, 2)
        assert np.array_equal(out, op)
        out[0, 0] = 99.0
        assert op[0, 0] != 99.0

    def test_site_routing_against_kron(self):
        rng = np.random.default_rng(13)
        n = 2
        a = random_op(rng, (n, n))
        b = random_op(rng, (n, n))
        op = np.kron(a, b)
        eye = np.eye(n)
        got = embedded(op, 2, 3, 3)
        assert np.allclose(got, np.kron(eye, np.kron(a, b)))
        got = embedded(op, 1, 3, 3)
        assert np.allclose(got, np.kron(a, np.kron(eye, b)))
        # reversed site order routes the factors independently
        got = embedded(op, 3, 1, 3)
        assert np.allclose(got, np.kron(b, np.kron(eye, a)))

    def test_reversed_sites_equal_conjugated_embed(self):
        rng = np.random.default_rng(17)
        n = 3
        op = random_op(rng, (9, 9))
        p = permutation_operator(n)
        lhs = embedded(op, 2, 1, 3)
        rhs = embedded(p @ op @ p, 1, 2, 3)
        assert np.allclose(lhs, rhs)

    def test_composition(self):
        rng = np.random.default_rng(19)
        x = random_op(rng, (4, 4))
        y = random_op(rng, (4, 4))
        lhs = apply_two_site(x, 2, 4, 4, embedded(y, 2, 4, 4))
        rhs = embedded(x @ y, 2, 4, 4)
        assert np.allclose(lhs, rhs)

    def test_disjoint_sites_commute(self):
        rng = np.random.default_rng(23)
        x = random_op(rng, (4, 4))
        y = random_op(rng, (4, 4))
        a = embedded(x, 1, 3, 4)
        b = embedded(y, 2, 4, 4)
        assert np.allclose(a @ b, b @ a)


class TestApplyTwoSiteOracle:
    """The contraction code against the dense embed-and-multiply path."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_embed(self, N, n):
        rng = np.random.default_rng(100 * N + n)
        op = random_op(rng, (N * N, N * N))
        # a column count unlike N**n, so rows and columns cannot be confused
        x = random_op(rng, (N ** n, 3))
        for a, b in itertools.permutations(range(1, n + 1), 2):
            got = apply_two_site(op, a, b, n, x)
            want = embed_two_site(op, a, b, N, n) @ x
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_returns_new_array(self):
        x = np.eye(4, dtype=complex)
        out = apply_two_site(np.eye(4), 1, 2, 2, x)
        out[0, 0] = 7.0
        assert x[0, 0] == 1.0

    def test_product_applies_right_to_left(self):
        # a plan with one term of three factors, applied to the probe block
        rng = np.random.default_rng(31)
        x, y, w = (random_op(rng, (4, 4)) for _ in range(3))
        plan = _plan_sides(3, [[[("x", 1, 2), ("y", 3, 1), ("w", 2, 3)]]])
        table = {("x", 1, 2): x, ("y", 3, 1): y, ("w", 2, 3): w}
        ((got,),) = _probe_jobs([(plan, [(table, 0)])])[0]
        want = (embed_two_site(x, 1, 2, 2, 3) @ embed_two_site(y, 3, 1, 2, 3)
                @ embed_two_site(w, 2, 3, 2, 3) @ _probe_block(8))
        assert got.shape == (8, 4)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestScalarDetection:
    def test_detects_identity_multiple(self):
        ok, coeff, resid = is_scalar_operator(3.5j * np.eye(6))
        assert ok
        assert abs(coeff - 3.5j) < 1e-14
        assert resid < 1e-14

    def test_rejects_nonscalar_with_frozen_residual(self):
        ok, coeff, resid = is_scalar_operator(np.diag([1.0, 2.0]))
        assert not ok
        assert abs(coeff - 1.5) < 1e-14
        # ||diag(-.5,.5)||_F / ||diag(1,2)||_F = 1/sqrt(10)
        assert abs(resid - 0.3162277660168379332) < 1e-14

    def test_empty_matrix_is_refused(self):
        # an empty matrix has no scalar coefficient (trace 0 over dim 0)
        for m in (np.zeros((0, 0)), np.zeros((0, 3))):
            with pytest.raises(DimensionMismatch):
                is_scalar_operator(m)

    def test_tolerance_is_adjustable(self):
        m = np.eye(4) + 1e-6 * np.ones((4, 4))
        assert not is_scalar_operator(m)[0]
        assert is_scalar_operator(m, tol=1e-3)[0]


class TestProbeScalar:
    def test_scalar_operator_reads_exactly(self):
        x = _probe_block(16)
        (coeff,), (resid,) = _probe_scalar(x, (2.5 - 1j) * x[None])
        assert abs(coeff - (2.5 - 1j)) < 1e-15
        assert resid < 1e-15

    def test_matches_the_dense_test_on_a_diagonal(self):
        # diag(1, 2) applied to the 2 x 2 probe block; the coefficient is
        # the probe estimate, the residual the scaled remainder
        x = _probe_block(2)
        y = np.diag([1.0, 2.0]) @ x
        (coeff,), (resid,) = _probe_scalar(x, y[None])
        want = np.sum(x * y) / np.sum(x * x)
        assert abs(coeff - want) < 1e-15
        assert abs(resid - np.linalg.norm(y - want * x)
                   / max(np.linalg.norm(y), 1.0)) < 1e-15
        assert resid > 0.1

    def test_small_products_use_absolute_floor(self):
        x = _probe_block(4)
        y = 1e-9 * np.ones((4, 4))
        assert _probe_scalar(x, y[None])[1][0] < 1e-8


class TestFrobeniusDistance:
    def test_zero_on_equal(self):
        a = np.arange(9.0).reshape(3, 3)
        assert frobenius_distance(a, a) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        assert frobenius_distance(a, b) == frobenius_distance(b, a)

    def test_scale_normalized(self):
        a = np.eye(2)
        assert abs(frobenius_distance(a, 2 * a) - 0.5) < 1e-15

    def test_small_matrices_use_absolute_floor(self):
        a = 1e-8 * np.eye(2)
        # norms below 1 fall back to an absolute comparison
        assert frobenius_distance(a, np.zeros((2, 2))) < 1e-7
