import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbmkit import RngStream, log1p_exp, sigmoid

F64_EPS = np.finfo(np.float64).eps
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXACT_FORMS = [
    (sigmoid, lambda x: 1 / (1 + np.exp(-x))),
    (log1p_exp, lambda x: np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))),
]


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_log3_is_three_quarters(self):
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_deep_negative_saturates_without_nan(self):
        val = sigmoid(-1000.0)
        assert 0.0 <= val <= 1e-300
        assert not math.isnan(val)

    def test_no_overflow_up_to_700(self):
        vals = sigmoid(np.array([-700.0, 700.0]))
        assert np.all(np.isfinite(vals))
        assert vals[1] == 1.0

    def test_symmetry_identity(self):
        x = np.linspace(-30, 30, 2001)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_monotone(self):
        x = np.linspace(-20, 20, 4001)
        assert np.all(np.diff(sigmoid(x)) > 0)


class TestLog1pExp:
    def test_zero_is_ln2(self):
        assert log1p_exp(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_positive_asymptote(self):
        assert log1p_exp(1000.0) == pytest.approx(1000.0, rel=1e-12)

    def test_large_negative_asymptote(self):
        assert 0.0 <= log1p_exp(-1000.0) <= 1e-300

    def test_softplus_identity(self):
        x = np.linspace(-100, 100, 2001)
        np.testing.assert_allclose(log1p_exp(x) - log1p_exp(-x), x, atol=1e-10)


class TestElementwiseNumerics:
    """Accuracy and edge behaviour shared by the logistic and the softplus."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= F64_EPS,
                        reason="long double is no wider than float64 here")
    @pytest.mark.parametrize("fn, exact_form", EXACT_FORMS)
    def test_within_4_ulp_of_long_double_reference(self, fn, exact_form):
        x = np.linspace(-700.0, 700.0, 140_001)
        exact = exact_form(x.astype(np.longdouble))
        rel = np.abs((fn(x) - exact) / exact)
        assert rel.max() <= 4 * F64_EPS

    @pytest.mark.parametrize("fn", [sigmoid, log1p_exp])
    def test_extremes_warn_nothing_and_nan_propagates(self, fn):
        x = np.array([-np.inf, -1000.0, -745.0, 745.0, 1000.0, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(x)
            scalars = [fn(v) for v in x]
            nan_out = fn(np.array([np.nan, 0.0]))
            nan_scalar = fn(math.nan)
        assert np.array_equal(out, scalars)
        assert np.all((out[:3] >= 0.0) & (out[:3] <= 1e-300))
        expected_high = [1.0] * 3 if fn is sigmoid else x[3:]
        assert np.array_equal(out[3:], expected_high)
        assert math.isnan(nan_out[0]) and not math.isnan(nan_out[1])
        assert math.isnan(nan_scalar)

    @pytest.mark.parametrize("fn", [sigmoid, log1p_exp])
    def test_input_array_not_written(self, fn):
        x = np.linspace(-5.0, 5.0, 11).reshape(1, 11)
        before = x.copy()
        fn(x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("fn", [sigmoid, log1p_exp])
    @pytest.mark.parametrize("value", [0.5, -3, np.float64(2.0), np.array(-2.0)])
    def test_scalar_input_returns_float(self, fn, value):
        assert type(fn(value)) is float

    @given(FINITE)
    def test_sigmoid_bounded_and_symmetric(self, x):
        s = sigmoid(x)
        assert 0.0 <= s <= 1.0
        assert abs(s + sigmoid(-x) - 1.0) <= 1e-15

    @given(FINITE)
    def test_softplus_difference_and_floor(self, x):
        assert math.isclose(log1p_exp(x) - log1p_exp(-x), x,
                            rel_tol=4 * F64_EPS, abs_tol=4 * F64_EPS)
        assert log1p_exp(x) >= max(x, 0.0)


class TestRngStream:
    def test_same_key_bit_identical(self):
        a = RngStream(12345, 7).uniforms(1000)
        b = RngStream(12345, 7).uniforms(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(12345, 0).uniforms(100)
        b = RngStream(12345, 1).uniforms(100)
        assert not np.array_equal(a, b)

    def test_cross_correlation_below_threshold(self):
        n = 100_000
        a = RngStream(2024, 0).uniforms(n)
        b = RngStream(2024, 1).uniforms(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_draw_sequence_is_stateful(self):
        rng = RngStream(5, 5)
        first = rng.uniforms(3)
        second = rng.uniforms(3)
        assert not np.array_equal(first, second)
        fresh = RngStream(5, 5)
        np.testing.assert_array_equal(fresh.uniforms(3), first)
        np.testing.assert_array_equal(fresh.uniforms(3), second)

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)
