import numpy as np
import pytest
from scipy.special import erf

from dsga.numerics import (
    NumericalError,
    check_finite,
    finite_diff_grad,
    gelu,
    gelu_grad,
    l2_normalize,
    sigmoid,
    softmax,
)


class TestGelu:
    def test_zero(self):
        assert gelu(np.array(0.0)) == 0.0

    def test_saturates_to_identity(self):
        assert abs(gelu(np.array(10.0)) - 10.0) <= 1e-6

    def test_exact_gaussian_cdf_at_one(self):
        # x * Phi(x) at x = 1, evaluated at 40-digit precision
        assert abs(gelu(np.array(1.0)) - 0.84134474606854295) < 1e-15

    def test_grad_of_float32_is_the_grad_of_its_float64_widening(self):
        rng = np.random.default_rng(12)
        # sigma = 3 covers the tails; the derivative crosses zero near -0.75
        x32 = np.concatenate([
            rng.standard_normal(20_000) * 3.0,
            rng.uniform(-0.8, -0.7, 2_000),
        ]).astype(np.float32)
        got = gelu_grad(x32)
        assert got.dtype == np.float64
        assert np.array_equal(got, gelu_grad(x32.astype(np.float64)))

    def test_grad_of_float64_is_the_formula(self):
        x = np.random.default_rng(13).standard_normal(5_000) * 3.0
        cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        assert np.array_equal(gelu_grad(x), cdf + x * pdf)


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize(np.array([3.0, 4.0]), axis=0)
        assert np.allclose(out, [0.6, 0.8], atol=1e-9)

    def test_unit_vector_fixed_point(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.allclose(l2_normalize(v, axis=0), v, atol=1e-12)

    def test_zero_norm_maps_to_zero(self):
        assert np.array_equal(l2_normalize(np.zeros(2), axis=0), np.zeros(2))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        once = l2_normalize(x, axis=1)
        twice = l2_normalize(once, axis=1)
        assert np.abs(twice - once).max() < 1e-12


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.array([2.5, 2.5, 2.5])), [1 / 3] * 3, atol=1e-15)

    def test_stabilized_against_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_high_precision_oracle_values(self):
        # softmax([1, 0.75, 0]) computed with 40-digit exponentials
        out = softmax(np.array([1.0, 0.75, 0.0]))
        expected = [0.46583556726652602, 0.36279310456968256, 0.17137132816379142]
        assert np.allclose(out, expected, rtol=0, atol=1e-15)

    def test_sums_to_one_along_axis(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 5)) * 20
        sums = softmax(x, axis=1).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12


class TestScalarNonlinearities:
    def test_sigmoid_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_log_four(self):
        assert abs(sigmoid(np.log(4.0)) - 0.8) < 1e-15

    def test_sigmoid_open_interval(self):
        assert 0.0 < sigmoid(-30.0) < 1.0 and 0.0 < sigmoid(30.0) < 1.0


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]))
        assert abs(grad[0] - 6.0) <= 1e-8

    def test_sum_gives_ones(self):
        grad = finite_diff_grad(lambda t: float(t.sum()), np.zeros((2, 3)))
        assert np.allclose(grad, 1.0, atol=1e-10)

    def test_nonfinite_aborts_with_coordinate(self):
        def bad(t):
            return float("nan") if t[1] > 0.5 else float(t.sum())

        with pytest.raises(NumericalError, match="coordinate 1"):
            finite_diff_grad(bad, np.array([0.0, 0.5, 0.0]))


class TestCheckFinite:
    def test_rejects_nan(self):
        with pytest.raises(NumericalError):
            check_finite(np.array([1.0, float("nan")]))
