import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lebesgue_interp import (
    DatasetBundle,
    InvalidInputError,
    ReconstructionParams,
    SampledSeries,
    TimeSeries,
    normalize_unit_interval,
)
from oracles import points

finite_values = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
)


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            TimeSeries([0.0, float("nan"), 1.0])

    def test_rejects_inf(self):
        with pytest.raises(InvalidInputError):
            TimeSeries([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            TimeSeries([])

    def test_immutable_values(self):
        ts = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestNormalize:
    def test_basic(self):
        out = normalize_unit_interval(TimeSeries([1.0, 3.0, 5.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.5, 1.0])

    def test_constant_maps_to_zeros(self):
        out = normalize_unit_interval(TimeSeries([7.0, 7.0, 7.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 0.0])

    def test_already_normalized(self):
        out = normalize_unit_interval(TimeSeries([0.0, 1.0]))
        np.testing.assert_array_equal(out.values, [0.0, 1.0])

    def test_range_wider_than_float_max(self):
        out = normalize_unit_interval(TimeSeries([-1e308, 0.0, 1e308, 5e307]))
        np.testing.assert_array_equal(out.values, [0.0, 0.5, 1.0, 0.75])

    @given(finite_values)
    def test_range_and_idempotence(self, values):
        once = normalize_unit_interval(TimeSeries(values))
        assert once.values.min() >= 0.0 and once.values.max() <= 1.0
        twice = normalize_unit_interval(once)
        np.testing.assert_allclose(twice.values, once.values, rtol=0.0, atol=1e-12)

    @given(
        st.lists(st.integers(-10**9, 10**9).map(float), min_size=1, max_size=50)
    )
    def test_preserves_order_and_extrema(self, values):
        # integer-valued inputs keep neighbours far enough apart that the
        # affine map cannot collapse distinct values to one float
        ts = TimeSeries(values)
        out = normalize_unit_interval(ts)
        assert int(np.argmin(ts.values)) == int(np.argmin(out.values))
        assert int(np.argmax(ts.values)) == int(np.argmax(out.values))
        order_in = np.argsort(ts.values, kind="stable")
        order_out = np.argsort(out.values, kind="stable")
        np.testing.assert_array_equal(order_in, order_out)

    @given(finite_values)
    def test_weakly_monotone_for_any_floats(self, values):
        ts = TimeSeries(values)
        out = normalize_unit_interval(ts)
        v = ts.values
        for i in range(len(values)):
            for j in range(len(values)):
                if v[i] < v[j]:
                    assert out.values[i] <= out.values[j]
                elif v[i] == v[j]:
                    assert out.values[i] == out.values[j]


class TestSampledSeries:
    def test_first_index_must_be_zero(self):
        with pytest.raises(InvalidInputError):
            SampledSeries(np.array([1, 2]), np.array([0.0, 1.0]), 5, 0.0)

    def test_indices_strictly_increasing(self):
        with pytest.raises(InvalidInputError):
            SampledSeries(np.array([0, 2, 2]), np.array([0.0, 1.0, 2.0]), 5, 0.0)

    def test_index_below_source_length(self):
        with pytest.raises(InvalidInputError):
            SampledSeries(np.array([0, 5]), np.array([0.0, 1.0]), 5, 0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidInputError):
            SampledSeries(np.array([0]), np.array([0.0]), 5, -0.1)

    def test_points_and_fraction(self):
        s = SampledSeries(np.array([0, 4]), np.array([0.5, 0.9]), 10, 0.05)
        assert points(s) == [(0, 0.5), (4, 0.9)]
        assert s.fraction == 0.2


class TestReconstructionParams:
    def test_tolerance(self):
        p = ReconstructionParams(threshold=0.05, tolerance_ratio=1.15)
        assert p.tolerance == pytest.approx(0.0575)

    def test_infinite_ratio_gives_infinite_tolerance(self):
        p = ReconstructionParams(threshold=0.0, tolerance_ratio=math.inf)
        assert math.isinf(p.tolerance)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            ReconstructionParams(threshold=0.05, tolerance_ratio=0.9)

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidInputError):
            ReconstructionParams(threshold=0.05, previous_distance=-1)


class TestEqualLengthCheck:
    def test_empty_bundle_rejected(self):
        with pytest.raises(InvalidInputError):
            DatasetBundle("d", ())
