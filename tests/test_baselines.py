from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lebesgue_interp import (
    ReconstructionParams,
    interp_linear,
    interp_nearest,
    interp_pchip,
    interp_zoh,
)
from lebesgue_interp import baselines
from lebesgue_interp.baselines import fritsch_carlson_slopes
from conftest import PER_SIGNAL, make_sampled
from oracles import linear_pointwise, nearest_pointwise, points, zoh_pointwise


def random_knots(rng, max_index=60, max_knots=10):
    k = int(rng.integers(2, max_knots))
    idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, max_index), size=k - 1, replace=False))])
    vals = rng.uniform(-1.0, 1.0, size=k)
    return make_sampled(idx, vals, int(idx[-1]) + 1 + int(rng.integers(0, 5)))


class TestZoh:
    def test_two_knots(self):
        s = make_sampled([0, 4], [0.0, 0.3], 5)
        np.testing.assert_array_equal(interp_zoh(s), [0, 0, 0, 0, 0.3])

    def test_single_knot_holds(self):
        s = make_sampled([0], [0.5], 4)
        np.testing.assert_array_equal(interp_zoh(s), [0.5] * 4)

    def test_three_knots(self):
        s = make_sampled([0, 2, 3], [1.0, 2.0, 3.0], 4)
        np.testing.assert_array_equal(interp_zoh(s), [1.0, 1.0, 2.0, 3.0])

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = random_knots(rng)
            np.testing.assert_array_equal(
                interp_zoh(s), zoh_pointwise(points(s), s.source_length)
            )

    def test_step_function_values_come_from_knots(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = random_knots(rng)
            assert set(interp_zoh(s).tolist()) <= set(s.values.tolist())


class TestLinear:
    def test_two_knots(self):
        s = make_sampled([0, 4], [0.0, 0.056], 5)
        np.testing.assert_allclose(
            interp_linear(s), [0.0, 0.014, 0.028, 0.042, 0.056], atol=1e-15
        )

    def test_collinear_knots_reproduce_line(self):
        line = np.arange(11) * 0.1
        s = make_sampled([0, 3, 7, 10], line[[0, 3, 7, 10]], 11)
        np.testing.assert_allclose(interp_linear(s), line, atol=1e-15)

    def test_single_knot_degenerates_to_hold(self):
        s = make_sampled([0], [1.0], 3)
        np.testing.assert_array_equal(interp_linear(s), [1.0, 1.0, 1.0])

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = random_knots(rng)
            np.testing.assert_allclose(
                interp_linear(s), linear_pointwise(points(s), s.source_length), atol=1e-12
            )

    def test_interval_envelope(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            s = random_knots(rng)
            out = interp_linear(s)
            for (xa, ya), (xb, yb) in zip(points(s), points(s)[1:]):
                seg = out[xa : xb + 1]
                assert seg.min() >= min(ya, yb) - 1e-12
                assert seg.max() <= max(ya, yb) + 1e-12


class TestNearest:
    def test_tie_goes_to_earlier_knot(self):
        s = make_sampled([0, 4], [0.0, 1.0], 5)
        np.testing.assert_array_equal(interp_nearest(s), [0, 0, 0, 1, 1])

    def test_single_knot(self):
        s = make_sampled([0], [0.7], 5)
        np.testing.assert_array_equal(interp_nearest(s), [0.7] * 5)

    def test_identity_when_fully_sampled(self):
        vals = np.array([0.3, 0.1, 0.9, 0.5])
        s = make_sampled([0, 1, 2, 3], vals, 4)
        np.testing.assert_array_equal(interp_nearest(s), vals)

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = random_knots(rng)
            np.testing.assert_array_equal(
                interp_nearest(s), nearest_pointwise(points(s), s.source_length)
            )


class TestPchip:
    def test_collinear_exact_on_dyadic_grid(self):
        # dyadic spacing and values make every Hermite term exact in binary
        line = np.arange(13) * 0.25
        s = make_sampled([0, 4, 8, 12], line[[0, 4, 8, 12]], 13)
        np.testing.assert_array_equal(interp_pchip(s), line)

    def test_collinear_general(self):
        line = np.arange(11) * 0.1
        s = make_sampled([0, 3, 7, 10], line[[0, 3, 7, 10]], 11)
        np.testing.assert_allclose(interp_pchip(s), line, atol=1e-12)

    def test_monotone_input_monotone_output(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(3, 9))
            idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 40), size=k - 1, replace=False))])
            vals = np.sort(rng.uniform(0.0, 1.0, size=k))
            s = make_sampled(idx, vals, int(idx[-1]) + 1)
            out = interp_pchip(s)
            assert np.all(np.diff(out) >= -1e-12)
            assert out.min() >= vals.min() - 1e-12 and out.max() <= vals.max() + 1e-12

    def test_knot_envelope_per_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = random_knots(rng)
            out = interp_pchip(s)
            for (xa, ya), (xb, yb) in zip(points(s), points(s)[1:]):
                seg = out[xa : xb + 1]
                assert seg.min() >= min(ya, yb) - 1e-9
                assert seg.max() <= max(ya, yb) + 1e-9

    def test_matches_reference_implementation(self):
        scipy_interp = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = random_knots(rng)
            ref = scipy_interp.PchipInterpolator(s.indices, s.values)(
                np.arange(int(s.indices[-1]) + 1)
            )
            np.testing.assert_allclose(
                interp_pchip(s)[: int(s.indices[-1]) + 1], ref, rtol=0.0, atol=1e-9
            )

    def test_derivative_continuous_at_knots(self):
        # the analytic derivative of each cubic piece, evaluated at the shared
        # knot from both sides, must agree exactly

        def segment_derivative(y0, y1, m0, m1, h, t):
            d00 = 6.0 * t**2 - 6.0 * t
            d10 = 3.0 * t**2 - 4.0 * t + 1.0
            d01 = -6.0 * t**2 + 6.0 * t
            d11 = 3.0 * t**2 - 2.0 * t
            # slope terms carry d/dt of (h * basis) / h, which cancels exactly
            return (d00 * y0 + d01 * y1) / h + d10 * m0 + d11 * m1

        rng = np.random.default_rng(8)
        for _ in range(30):
            s = random_knots(rng)
            x = s.indices.astype(np.float64)
            y = s.values
            m = fritsch_carlson_slopes(x, y, np.arange(x.size) == 0)
            for k in range(1, len(x) - 1):
                left = segment_derivative(y[k - 1], y[k], m[k - 1], m[k], x[k] - x[k - 1], 1.0)
                right = segment_derivative(y[k], y[k + 1], m[k], m[k + 1], x[k + 1] - x[k], 0.0)
                assert left == right == m[k]

    def test_single_knot_holds(self):
        s = make_sampled([0], [0.3], 6)
        np.testing.assert_array_equal(interp_pchip(s), [0.3] * 6)

    def test_two_knots_linear(self):
        s = make_sampled([0, 4], [1.0, 3.0], 5)
        np.testing.assert_allclose(interp_pchip(s), [1.0, 1.5, 2.0, 2.5, 3.0], atol=1e-12)

    def test_block_slopes_are_each_signals_slopes(self):
        # signals of 1, 2, 3 and more knots end to end: each signal's own
        # slopes, 0 for the single knot
        rng = np.random.default_rng(12)
        signals = [make_sampled([0], [0.4], 3), make_sampled([0, 2], [0.1, 0.9], 5)]
        signals += [random_knots(rng) for _ in range(6)]
        signals.insert(3, make_sampled([0, 1, 4], [0.5, 0.2, 0.7], 6))
        offsets = np.cumsum([0] + [s.source_length for s in signals])
        x = np.concatenate([s.indices + o for s, o in zip(signals, offsets)])
        y = np.concatenate([s.values for s in signals])
        first = np.isin(x, offsets)
        want = [np.zeros(1)] + [
            fritsch_carlson_slopes(s.indices, s.values, np.arange(len(s)) == 0) for s in signals[1:]
        ]
        got = fritsch_carlson_slopes(x, y, first)
        assert got.tobytes() == np.concatenate(want).tobytes()

    def test_block_cubic_skips_signal_tails(self):
        # the Hermite pass covers each signal's knot span, not the held tails
        signals = [make_sampled([0, 2], [0.1, 0.9], 7), make_sampled([0], [0.4], 3)]
        signals += [make_sampled([0, 1, 4], [0.5, 0.2, 0.7], 9), make_sampled([0, 3], [0.3, 0.6], 4)]
        offsets = np.cumsum([0] + [s.source_length for s in signals])
        x = np.concatenate([s.indices + o for s, o in zip(signals, offsets)])
        y = np.concatenate([s.values for s in signals])
        first = np.isin(x, offsets)
        with mock.patch.object(baselines, "hermite_fill", wraps=baselines.hermite_fill) as fill:
            out = baselines.reconstruct_block(None, baselines.cubic_kernel, x, y, first, offsets[-1])
        spans = fill.call_args.args[1]
        assert spans[-1] - spans[0] + 1 == sum(int(s.indices[-1]) + 1 for s in signals)
        want = np.concatenate([interp_pchip(s) for s in signals])
        assert out.tobytes() == want.tobytes()


class TestCommonContracts:
    @pytest.mark.parametrize("interp", [interp_zoh, interp_linear, interp_nearest, interp_pchip])
    def test_interpolation_condition_exact(self, interp):
        rng = np.random.default_rng(9)
        for _ in range(40):
            s = random_knots(rng)
            out = interp(s)
            np.testing.assert_array_equal(out[s.indices], s.values)

    @pytest.mark.parametrize("interp", [interp_zoh, interp_linear, interp_nearest, interp_pchip])
    def test_output_length_and_tail_hold(self, interp):
        s = make_sampled([0, 3], [0.2, 0.8], 9)
        out = interp(s)
        assert out.size == 9
        np.testing.assert_array_equal(out[3:], [0.8] * 6)


class TestOverflowRetry:
    """Knot differences past float max make the first pass overflow; the
    retry at a power-of-two scale must give what the unscaled run would."""

    @pytest.mark.parametrize("method", sorted(PER_SIGNAL))
    def test_retry_equals_run_at_lower_scale(self, method):
        s = make_sampled([0, 5, 10], [1e308, -1e308, 1e308], 11)
        got = PER_SIGNAL[method](s, ReconstructionParams(0.05))
        scale = 2.0**-20
        small = make_sampled(s.indices, s.values * scale, 11)
        want = PER_SIGNAL[method](small, ReconstructionParams(0.05 * scale)) / scale
        assert np.all(np.isfinite(got))
        assert got.tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), magnitude=st.sampled_from([1e-5, 1.0, 1e4]),
           power=st.integers(-60, 60))
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scaling_is_exact(self, seed, magnitude, power):
        # what makes the retry exact: scaling knots and threshold by 2**power
        # scales every method's output exactly
        rng = np.random.default_rng(seed)
        s = random_knots(rng)
        s = make_sampled(s.indices, s.values * magnitude, s.source_length)
        params = ReconstructionParams(0.05 * magnitude, 1.15, 1, 1)
        scale = 2.0**power
        scaled = make_sampled(s.indices, s.values * scale, s.source_length)
        scaled_params = ReconstructionParams(params.threshold * scale, 1.15, 1, 1)
        for method, rec in PER_SIGNAL.items():
            want = rec(s, params) * scale
            assert rec(scaled, scaled_params).tobytes() == want.tobytes(), method
