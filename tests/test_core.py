import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbmkit import RngStream, log1p_exp, sigmoid
from rbmkit.core import log_sum_exp, softmax

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


class TestSigmoidOut:
    EDGES = [-1000.0, -709.79, -709.78, 0.0, 36.0, 800.0, np.inf, -np.inf, np.nan]

    def test_in_place_is_bit_identical_and_silent(self):
        x = np.array(self.EDGES + list(np.linspace(-40.0, 40.0, 801)))
        want = sigmoid(x)
        buf = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(buf, out=buf)
        assert got is buf
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("value", EDGES)
    def test_in_place_0d_is_bit_identical_and_silent(self, value):
        buf = np.array(value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(buf, out=buf)
            want = sigmoid(value)
        assert got is buf and got.ndim == 0
        assert np.array_equal(got, want, equal_nan=True)

    def test_into_another_buffer_leaves_the_input(self):
        x = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        before = x.copy()
        out = np.empty_like(x)
        assert sigmoid(x, out=out) is out
        assert np.array_equal(x, before)
        assert np.array_equal(out, sigmoid(x))

    @pytest.mark.parametrize("x", [np.array(EDGES), np.array(-709.79)])
    def test_default_never_writes_its_input(self, x):
        before = x.copy()
        out = sigmoid(x)
        assert out is not x
        assert np.array_equal(x, before, equal_nan=True)


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

    def test_non_positive_input_is_log1p_exp_bit_for_bit(self):
        tiny = np.finfo(np.float64).tiny
        x = np.concatenate([[0.0, -0.0, -5e-324, -1e-310, -tiny, -709.78,
                             -745.0, -1e308, -np.inf],
                            np.linspace(-800.0, 0.0, 8001)])
        expected = np.log1p(np.exp(x))
        assert np.array_equal(log1p_exp(x).view(np.int64), expected.view(np.int64))
        assert [log1p_exp(v) for v in x] == expected.tolist()

    def test_float64_extremes_raise_no_floating_point_flag(self):
        big = np.finfo(np.float64).max
        x = np.array([-np.inf, -big, -745.0, -709.78, 709.78, 745.0, big, np.inf])
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            out = log1p_exp(x)
            scalars = [log1p_exp(v) for v in x]
        assert np.array_equal(out, scalars)
        assert np.array_equal(out[4:], x[4:])

    @pytest.mark.parametrize("x", [708.9, 709.0, 709.5, 709.78, 710.0])
    def test_floor_holds_at_the_clamp(self, x):
        assert log1p_exp(x) >= max(x, 0.0)
        assert log1p_exp(np.array([x]))[0] >= x


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


class TestLogsumexp:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_a_shifted_sum_and_consumes_its_input(self, axis):
        # entries near +-800: exp alone overflows to inf or underflows to 0
        x = RngStream(45, 0).normals((7, 5)) + np.array([800.0, -800.0, 0.0,
                                                         3.0, -3.0])
        x[2] = 800.0
        want = [m + math.log(math.fsum(math.exp(v - m) for v in line))
                for line in np.moveaxis(x, axis, -1)
                for m in [max(line)]]
        m = np.max(x, axis=axis, keepdims=True)
        table = x.copy()
        got = log_sum_exp(table, axis)
        assert got.shape == (x.shape[1 - axis],)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        # the shifted exponentials are left in the table's own buffer
        np.testing.assert_array_equal(table, np.exp(x - m))

    def test_leaves_lines_whose_largest_weight_is_one(self):
        # lines about 1600 apart along the last axis of a stack, as the
        # oracle's joint -E tables: a plain exp would give lines of only
        # inf or only 0, whose weights over their own sum are NaN
        x = RngStream(47, 0).normals((2, 3, 5)) + np.array(
            [[[800.0], [-800.0], [0.0]], [[-800.0], [3.0], [800.0]]])
        table = x.copy()
        log_sum_exp(table, axis=2)
        np.testing.assert_array_equal(table, np.exp(x - x.max(axis=2, keepdims=True)))
        np.testing.assert_array_equal(table.max(axis=2), 1.0)
        weights = table / table.sum(axis=2, keepdims=True)
        assert np.isfinite(weights).all()
        np.testing.assert_allclose(weights.sum(axis=2), 1.0, rtol=1e-15)


class TestSoftmax:
    @pytest.mark.parametrize("axis", [0, -1])
    def test_lines_far_apart_stay_finite_and_match_fsum_in_place(self, axis):
        # lines about 1600 apart: shifted by the array's one max instead of
        # each line's own, the low line's exponentials would all underflow
        lines = RngStream(46, 0).normals((4, 6)) + np.array(
            [[800.0], [-800.0], [0.0], [3.0]])
        want = [[math.exp(v - m) / math.fsum(math.exp(u - m) for u in line)
                 for v in line] for line in lines for m in [max(line)]]
        x = lines.T.copy() if axis == 0 else lines.copy()
        got = softmax(x, axis)
        assert got is x
        assert np.isfinite(got).all()
        np.testing.assert_allclose(np.moveaxis(got, axis, -1), want, rtol=1e-14)

    def test_vector_sums_to_one(self):
        got = softmax(np.array([-1000.0, 0.0, 1000.0, 1000.0]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.5, 0.5])


class TestRngStream:
    def test_same_key_bit_identical(self):
        a = RngStream(12345, 7).uniforms(1000)
        b = RngStream(12345, 7).uniforms(1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("key_a, key_b", [
        ((12345, 0), (12345, 1)),
        # both split into the 32-bit words [0, 1, 5], so a key joined into
        # one SeedSequence([seed, stream_id]) list would give them one stream
        ((2**32, 5), (0, 1 + 5 * 2**32)),
    ])
    def test_distinct_streams_differ(self, key_a, key_b):
        a = RngStream(*key_a).uniforms(100)
        b = RngStream(*key_b).uniforms(100)
        assert not np.array_equal(a, b)

    def test_draws_in_pieces_equal_one_draw(self):
        # a chain pool draws its uniforms blocks ahead into its own buffer
        # and relies on the doubles not depending on the call widths
        whole = RngStream(31, 4).uniforms(1000)
        rng = RngStream(31, 4)
        pieces = np.concatenate([rng.uniforms(7), rng.uniforms(993)])
        np.testing.assert_array_equal(pieces, whole)
        out = np.full((4, 250), np.nan)
        assert RngStream(31, 4).uniforms((4, 250), out=out) is out
        np.testing.assert_array_equal(out.ravel(), whole)

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
        with pytest.raises(ValueError, match="seed"):
            RngStream(-1, 0)
        with pytest.raises(ValueError, match="stream_id"):
            RngStream(0, 2**64)
        # a float or bool would quietly key another integer's stream
        for seed, stream_id, name in [
                (1.5, 0, "seed"), (1.0, 0, "seed"), (True, 0, "seed"),
                ("3", 0, "seed"), (np.float64(2.0), 0, "seed"),
                (np.bool_(True), 0, "seed"), (0, 1.5, "stream_id"),
                (0, False, "stream_id"), (0, "3", "stream_id")]:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                RngStream(seed, stream_id)

    def test_accepts_numpy_integer_keys(self):
        a = RngStream(np.int64(12), np.uint64(7))
        assert (a.seed, a.stream_id) == (12, 7)
        assert repr(a) == "RngStream(seed=12, stream_id=7)"
        np.testing.assert_array_equal(a.uniforms(5), RngStream(12, 7).uniforms(5))
