import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lebesgue_interp import (
    InvalidInputError,
    ReconstructionParams,
    TimeSeries,
    generate_synthetic_corpus,
    interp_linear,
    interp_pchip,
    lebesgue_sample,
    reconstruct_zechip,
    reconstruct_zechipc,
    reconstruct_zeli,
    reconstruct_zelic,
    rmse,
)
from lebesgue_interp.verify import abrupt_limit_condition
from lebesgue_interp.zelic import knot_plan
from conftest import make_sampled
from oracles import augmented_knots_scalar, chord_exits_band, chord_loop, pchip_loop, points

DEFAULT = ReconstructionParams(threshold=0.05, tolerance_ratio=1.15)
SMOOTH = ReconstructionParams(threshold=0.05, tolerance_ratio=3.0)  # 0.1 jumps stay smooth


def plan_of(s, params, turns):
    """knot_plan on one signal, a block of one, as (index, value) pairs."""
    x, y, first = knot_plan(s.indices, s.values, np.arange(len(s)) == 0, params, turns)
    assert first.tolist() == [True] + [False] * (x.size - 1)
    return list(zip(x.tolist(), y.tolist()))


def plan(indices, values, params=DEFAULT, turns=True):
    return plan_of(make_sampled(indices, values, int(indices[-1]) + 1), params, turns)


def turn_knot_at(indices, values, x_mid, params=DEFAULT):
    """Whether the turn-aware plan has a knot at x_mid that the plain one lacks."""
    with_turns = dict(plan(indices, values, params, turns=True))
    without = dict(plan(indices, values, params, turns=False))
    return x_mid in with_turns and x_mid not in without


class TestClassifyInterval:
    def test_smooth_below_tolerance(self):
        assert plan([0, 4], [0.0, 0.056]) == [(0, 0.0), (4, 0.056)]

    def test_abrupt_at_or_above_tolerance(self):
        assert plan([0, 4], [0.0, 0.14]) == [(0, 0.0), (3, 0.0), (4, 0.14)]

    def test_equal_values_smooth_even_at_zero_tolerance(self):
        params = ReconstructionParams(threshold=0.0, tolerance_ratio=1.0)
        assert plan([0, 4], [0.5, 0.5], params) == [(0, 0.5), (4, 0.5)]


class TestAbruptLimitCondition:
    def test_chord_exits_band(self):
        # slope 0.02, band/|slope| = 2.5, last interior point 9 > 2.5
        assert abrupt_limit_condition(0, 0.0, 10, 0.2, 0.05) is True

    def test_zero_slope_never_exits(self):
        assert abrupt_limit_condition(0, 0.5, 10, 0.5, 0.05) is False

    def test_adjacent_knots_have_no_interior(self):
        assert abrupt_limit_condition(3, 0.0, 4, 0.9, 0.05) is False

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(InvalidInputError, match="^interval endpoints must be ordered, got 5 >= 5"):
            abrupt_limit_condition(5, 0.0, 5, 1.0, 0.1)

    @given(
        xa=st.integers(0, 40),
        width=st.integers(1, 40),
        ya=st.floats(-1, 1, allow_nan=False),
        yb=st.floats(-1, 1, allow_nan=False),
        t=st.floats(0, 0.5, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_equivalent_to_interior_scan(self, xa, width, ya, yb, t):
        xb = xa + width
        fast = abrupt_limit_condition(xa, ya, xb, yb, t)
        assert fast == chord_exits_band(xa, ya, xb, yb, t)


class TestConvexityGate:
    def test_fires_on_reversal_with_spacing(self):
        assert turn_knot_at([0, 5, 15], [0.6, 0.5, 0.6], 10)

    def test_monotone_triple_never_fires(self):
        assert not turn_knot_at([0, 5, 15], [0.1, 0.2, 0.3], 10)

    def test_gaps_at_or_below_min_distance_block(self):
        assert not turn_knot_at([0, 3, 15], [0.6, 0.5, 0.6], 9)
        assert not turn_knot_at([0, 5, 8], [0.6, 0.5, 0.6], 6)

    def test_no_previous_knot_blocks(self):
        assert not turn_knot_at([0, 10], [0.5, 0.6], 5)

    def test_zero_difference_blocks(self):
        assert not turn_knot_at([0, 5, 15], [0.5, 0.5, 0.6], 10)

    def test_max_distance_bound(self):
        bounded = ReconstructionParams(threshold=0.05, subsequent_max_distance=10)
        assert not turn_knot_at([0, 5, 15], [0.6, 0.5, 0.6], 10, bounded)
        assert turn_knot_at([0, 5, 14], [0.6, 0.5, 0.6], 9, bounded)


class TestConvexityKnots:
    def test_convex_midpoint(self):
        assert plan([0, 5, 15], [0.6, 0.5, 0.6], SMOOTH) == [(0, 0.6), (5, 0.5), (10, 0.5), (15, 0.6)]

    def test_concave_midpoint(self):
        assert plan([0, 5, 15], [0.4, 0.5, 0.4], SMOOTH) == [(0, 0.4), (5, 0.5), (10, 0.5), (15, 0.4)]

    def test_abrupt_adds_anchor(self):
        got = plan([0, 5, 15], [0.55, 0.5, 0.6])
        assert got == [(0, 0.55), (5, 0.5), (10, 0.5), (14, 0.5), (15, 0.6)]

    def test_anchor_dropped_when_colliding_with_midpoint(self):
        params = ReconstructionParams(threshold=0.05, subsequent_min_distance=0)
        got = plan([0, 5, 7], [0.55, 0.5, 0.6], params)
        assert got == [(0, 0.55), (5, 0.5), (6, pytest.approx((0.55 + 0.45) / 2)), (7, 0.6)]

    def test_midpoint_dropped_on_adjacent_knots(self):
        params = ReconstructionParams(threshold=0.05, subsequent_min_distance=0)
        assert plan([0, 5, 6], [0.55, 0.5, 0.6], params) == [(0, 0.55), (5, 0.5), (6, 0.6)]

    @given(
        ya=st.floats(0.1, 0.9, allow_nan=False),
        rise=st.floats(0.001, 0.5, allow_nan=False),
        width=st.integers(4, 40),
        t=st.floats(0.001, 0.2, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_midpoint_between_chord_and_band_edge(self, ya, rise, width, t):
        params = ReconstructionParams(threshold=t)
        # falling into the knot at 5: a convex turn
        knots = dict(plan([0, 5, 5 + width], [ya + 0.05, ya, ya + rise], params))
        x_mid = 5 + width // 2
        chord = ya + rise * (x_mid - 5) / width
        assert ya - t - 1e-12 <= knots[x_mid] <= chord + 1e-12


class TestKnotPlan:
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(1, 300),
        threshold=st.sampled_from([0.0, 0.02, 0.05, 0.2]),
        ratio=st.sampled_from([1.0, 1.15, 3.0, math.inf]),
        previous=st.integers(0, 5),
        subsequent_min=st.integers(0, 5),
        subsequent_max=st.one_of(st.none(), st.integers(1, 40)),
        turns=st.booleans(),
    )
    @example(seed=1, length=1, threshold=0.0, ratio=1.0, previous=0, subsequent_min=0,
             subsequent_max=None, turns=True)
    @example(seed=2, length=300, threshold=0.0, ratio=math.inf, previous=0, subsequent_min=0,
             subsequent_max=None, turns=True)
    @example(seed=3, length=300, threshold=0.02, ratio=1.0, previous=1, subsequent_min=1,
             subsequent_max=8, turns=True)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_oracle(
        self, seed, length, threshold, ratio, previous, subsequent_min, subsequent_max, turns
    ):
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.normal(0.0, rng.uniform(0.005, 0.1), size=length))
        s = lebesgue_sample(TimeSeries(walk), threshold)
        params = ReconstructionParams(threshold, ratio, previous, subsequent_min, subsequent_max)
        want = augmented_knots_scalar(points(s), params, turns)
        assert plan_of(s, params, turns) == want
        chord, cubic = (
            (reconstruct_zelic, reconstruct_zechipc) if turns else (reconstruct_zeli, reconstruct_zechip)
        )
        n = s.source_length
        np.testing.assert_array_equal(chord(s, params), chord_loop(want, n))
        np.testing.assert_array_equal(cubic(s, params), pchip_loop(want, n))


class TestReconstructZeli:
    def test_smooth_interval_is_linear(self):
        s = make_sampled([0, 4], [0.0, 0.056], 5)
        np.testing.assert_allclose(
            reconstruct_zeli(s, DEFAULT), [0.0, 0.014, 0.028, 0.042, 0.056], atol=1e-15
        )

    def test_abrupt_interval_is_hold_then_jump(self):
        s = make_sampled([0, 4], [0.0, 0.3], 5)
        np.testing.assert_array_equal(reconstruct_zeli(s, DEFAULT), [0, 0, 0, 0, 0.3])

    def test_infinite_ratio_equals_linear(self):
        rng = np.random.default_rng(10)
        params = ReconstructionParams(threshold=0.05, tolerance_ratio=math.inf)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 40), k - 1, replace=False))])
            vals = rng.uniform(0, 1, size=k)
            s = make_sampled(idx, vals, int(idx[-1]) + 3)
            np.testing.assert_array_equal(
                reconstruct_zeli(s, params), interp_linear(s)
            )

    def test_abrupt_values_stay_in_band(self):
        # inside an abrupt interval every value equals the left knot
        s = make_sampled([0, 10, 20], [0.0, 0.5, 0.1], 21)
        out = reconstruct_zeli(s, DEFAULT)
        np.testing.assert_array_equal(out[1:10], [0.0] * 9)
        np.testing.assert_array_equal(out[11:20], [0.5] * 9)

    def test_smooth_envelope(self):
        s = make_sampled([0, 8], [0.5, 0.55], 9)
        out = reconstruct_zeli(s, DEFAULT)
        assert out.min() >= 0.5 - 1e-12 and out.max() <= 0.55 + 1e-12

    def test_knots_reproduced(self):
        s = make_sampled([0, 7, 13], [0.2, 0.9, 0.3], 15)
        out = reconstruct_zeli(s, DEFAULT)
        np.testing.assert_array_equal(out[s.indices], s.values)


class TestReconstructZelic:
    def test_monotone_samples_equal_zeli(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(3, 9))
            idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 60), k - 1, replace=False))])
            vals = np.sort(rng.uniform(0, 1, size=k))
            s = make_sampled(idx, vals, int(idx[-1]) + 2)
            np.testing.assert_array_equal(
                reconstruct_zelic(s, DEFAULT), reconstruct_zeli(s, DEFAULT)
            )

    def test_v_shape_dips_to_planned_midpoint(self):
        # ratio 3 keeps the 0.1 jumps smooth so only the turn knot differs
        params = ReconstructionParams(threshold=0.05, tolerance_ratio=3.0)
        s = make_sampled([0, 5, 15], [0.6, 0.5, 0.6], 16)
        out = reconstruct_zelic(s, params)
        assert out[10] == pytest.approx(0.5)  # (chord 0.55 + band edge 0.45) / 2
        expected = np.concatenate([
            np.linspace(0.6, 0.5, 6),
            np.linspace(0.5, 0.5, 6)[1:],
            np.linspace(0.5, 0.6, 6)[1:],
        ])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_reversal_reconstruction_below_chord(self):
        # convex turn: the reconstruction at the midpoint sits strictly under
        # the chord while the plain variant stays on it
        params = ReconstructionParams(threshold=0.10, tolerance_ratio=1.15)
        s = make_sampled([0, 6, 16], [0.65, 0.58, 0.62], 17, threshold=0.10)
        plain = reconstruct_zeli(s, params)
        turned = reconstruct_zelic(s, params)
        x_mid = (6 + 16) // 2
        chord = plain[x_mid]
        assert turned[x_mid] < chord

    def test_abrupt_reversal_keeps_anchor(self):
        params = ReconstructionParams(threshold=0.05, tolerance_ratio=1.15)
        s = make_sampled([0, 10, 20], [0.8, 0.3, 0.9], 21)
        out = reconstruct_zelic(s, params)
        assert out[19] == pytest.approx(0.3)  # hold anchor right before the jump
        assert out[20] == pytest.approx(0.9)

    def test_knots_reproduced(self):
        s = make_sampled([0, 6, 16], [0.65, 0.58, 0.62], 17)
        out = reconstruct_zelic(s, DEFAULT)
        np.testing.assert_array_equal(out[s.indices], s.values)


class TestReconstructZechip:
    def test_all_smooth_equals_pchip(self):
        rng = np.random.default_rng(12)
        params = ReconstructionParams(threshold=0.05, tolerance_ratio=math.inf)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 40), k - 1, replace=False))])
            vals = rng.uniform(0, 1, size=k)
            s = make_sampled(idx, vals, int(idx[-1]) + 2)
            np.testing.assert_array_equal(
                reconstruct_zechip(s, params), interp_pchip(s)
            )

    def test_abrupt_interval_held_flat(self):
        s = make_sampled([0, 4], [0.0, 0.3], 5)
        out = reconstruct_zechip(s, DEFAULT)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.0, 0.3])

    def test_beats_zeli_on_curved_signals(self):
        bundle = generate_synthetic_corpus(21, {"sine": 20}, length=400, name="sines")
        zc, zl = [], []
        for ts in bundle.signals:
            s = lebesgue_sample(ts, 0.05)
            zc.append(rmse(ts.values, reconstruct_zechip(s, DEFAULT)))
            zl.append(rmse(ts.values, reconstruct_zeli(s, DEFAULT)))
        assert np.mean(zc) < np.mean(zl)

    def test_knots_reproduced(self):
        s = make_sampled([0, 7, 9, 20], [0.2, 0.9, 0.1, 0.5], 22)
        out = reconstruct_zechip(s, DEFAULT)
        np.testing.assert_array_equal(out[s.indices], s.values)


class TestReconstructZechipc:
    def test_monotone_samples_equal_zechip(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = int(rng.integers(3, 9))
            idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 60), k - 1, replace=False))])
            vals = np.sort(rng.uniform(0, 1, size=k))
            s = make_sampled(idx, vals, int(idx[-1]) + 2)
            np.testing.assert_array_equal(
                reconstruct_zechipc(s, DEFAULT), reconstruct_zechip(s, DEFAULT)
            )

    def test_midpoint_knot_hit_exactly(self):
        params = ReconstructionParams(threshold=0.05, tolerance_ratio=3.0)
        s = make_sampled([0, 5, 15], [0.6, 0.5, 0.6], 16)
        out = reconstruct_zechipc(s, params)
        assert out[10] == pytest.approx(0.5, abs=1e-15)

    def test_improves_on_zechip_for_reversing_signals(self):
        bundle = generate_synthetic_corpus(22, {"triangle": 20}, length=400, name="tri")
        with_turns, without = [], []
        for ts in bundle.signals:
            s = lebesgue_sample(ts, 0.05)
            with_turns.append(rmse(ts.values, reconstruct_zechipc(s, DEFAULT)))
            without.append(rmse(ts.values, reconstruct_zechip(s, DEFAULT)))
        assert np.mean(with_turns) < np.mean(without)

    def test_knots_reproduced(self):
        s = make_sampled([0, 6, 16], [0.65, 0.58, 0.62], 17)
        out = reconstruct_zechipc(s, DEFAULT)
        np.testing.assert_array_equal(out[s.indices], s.values)


class TestPipelineFuzz:
    @pytest.mark.parametrize(
        "reconstruct",
        [reconstruct_zeli, reconstruct_zelic, reconstruct_zechip, reconstruct_zechipc],
    )
    def test_sampled_walks_reconstruct_cleanly(self, reconstruct):
        rng = np.random.default_rng(99)
        for _ in range(60):
            length = int(rng.integers(16, 300))
            walk = np.cumsum(rng.normal(0, rng.uniform(0.005, 0.1), size=length))
            lo, hi = walk.min(), walk.max()
            walk = (walk - lo) / (hi - lo) if hi > lo else np.zeros_like(walk)
            threshold = float(rng.choice([0.0, 0.02, 0.05, 0.2]))
            s = lebesgue_sample(TimeSeries(walk), threshold)
            params = ReconstructionParams(
                threshold=threshold,
                tolerance_ratio=float(rng.choice([1.0, 1.15, 2.0])),
                previous_distance=int(rng.integers(0, 5)),
                subsequent_min_distance=int(rng.integers(0, 5)),
                subsequent_max_distance=int(rng.integers(5, 40)) if rng.random() < 0.3 else None,
            )
            out = reconstruct(s, params)
            assert out.size == length
            assert np.all(np.isfinite(out))
            np.testing.assert_array_equal(out[s.indices], s.values)
