import math
import tracemalloc
import warnings

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

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int64])
    def test_bytes_of_the_one_expression_form(self, dtype):
        # two buffers, the same operations in the same order
        rng = np.random.default_rng(14)
        for x in (rng.standard_normal((3, 40, 7)) * 4.0, np.array(-0.0), np.array([-6e4, 6e4])):
            x = x.astype(dtype)
            got = gelu(x)
            ref = x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_two_buffers_at_peak(self):
        x = np.random.default_rng(15).standard_normal(2**20).astype(np.float32)
        tracemalloc.start()
        try:
            gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.nbytes, peak / x.nbytes

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_overflowing_rows_are_rescaled_alone(self, dtype):
        # rows whose sum of squares overflows come back unit-norm, with no
        # warning; every other row keeps the bytes of the plain formula
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 6, 16))
        huge = np.finfo(dtype).max ** 0.5 * 10.0
        x[0, 1] *= huge
        x[1, 4] *= huge / 2
        x[0, 3] *= huge / 1e3  # large, but its squares sum to a finite value
        x[1, 5] = 0.0
        x = x.astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = l2_normalize(x, axis=-1)
        wide = x.astype(np.float64 if dtype == np.float32 else np.longdouble)
        ref = wide / (np.sqrt(np.sum(wide * wide, axis=-1, keepdims=True)) + 1e-12)
        assert got.dtype == dtype
        assert np.allclose(got, ref, rtol=8 * np.finfo(dtype).eps, atol=0.0)
        assert np.array_equal(got[1, 5], np.zeros(16))
        plain = np.ones((2, 6), bool)
        plain[0, 1] = plain[1, 4] = False
        with np.errstate(over="ignore"):
            before = x / (np.sqrt(np.sum(x * x, axis=-1, keepdims=True)) + 1e-12)
        assert got[plain].tobytes() == before[plain].tobytes()
        assert not before[~plain].any()  # the overflowing rows were zero vectors

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

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 16, -1])
    def test_non_finite_at_first_middle_and_last(self, dtype, value, where):
        x = np.linspace(-2.0, 2.0, 35).astype(dtype)
        x[where] = value
        with pytest.raises(NumericalError, match="^field contains non-finite values$"):
            check_finite(x, "field")
        with pytest.raises(NumericalError):
            check_finite(x.reshape(5, 7)[:, ::2], "field")  # a strided view

    @pytest.mark.parametrize("x", [
        np.array([-0.0, 0.0]), np.zeros((0, 3)), np.arange(6).reshape(2, 3),
        np.array([True, False]), np.array(np.finfo(np.float32).max, dtype=np.float32),
        np.array([-np.finfo(np.float64).max, 5e-324]),
    ])
    def test_finite_returned_as_is(self, x):
        assert check_finite(x) is x
