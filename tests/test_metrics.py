import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lebesgue_interp import (
    DatasetBundle,
    DatasetResult,
    InvalidInputError,
    MethodScore,
    ShapeError,
    TimeSeries,
    abruptness,
    aggregate_report,
    rmse,
)
from lebesgue_interp import metrics
from lebesgue_interp.metrics import mean_abruptness, rmse_per_signal
from oracles import mean_abruptness_per_signal, population_sd, rmse_per_slice, rmse_plain

# quantized so squared differences cannot underflow to zero, which would
# break the "zero iff equal" direction for subnormal gaps
rmse_vectors = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False).map(lambda v: round(v, 6)),
    min_size=1,
    max_size=30,
)


def rec(values):
    return np.asarray(values, dtype=np.float64)


def _flat(signals):
    """A dataset's values end to end and its signal offsets."""
    bundle = DatasetBundle("d", signals)
    return bundle.values, bundle.offsets


class TestRmse:
    def test_identical_is_zero(self, ts):
        assert rmse(ts([0.1, 0.2, 0.3]).values, rec([0.1, 0.2, 0.3])) == 0.0

    def test_constant_offset(self, ts):
        sig = np.linspace(0, 1, 17)
        assert rmse(ts(sig).values, rec(sig + 0.1)) == pytest.approx(0.1)

    def test_length_mismatch(self, ts):
        with pytest.raises(ShapeError):
            rmse(ts([1.0, 2.0]).values, rec([1.0]))

    def test_empty_arrays_rejected(self):
        # the mean of no squared errors used to be 0/0: nan and a RuntimeWarning
        with pytest.raises(InvalidInputError):
            rmse(rec([]), rec([]))

    @given(rmse_vectors, rmse_vectors)
    @settings(max_examples=100)
    def test_matches_plain_formula_and_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        got = rmse(TimeSeries(a).values, rec(b))
        assert got == pytest.approx(rmse_plain(a, b), abs=1e-12)
        assert got >= 0.0
        assert rmse(TimeSeries(b).values, rec(a)) == pytest.approx(got, abs=1e-12)
        if got == 0.0:
            assert a == b

    @given(rmse_vectors, st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=100)
    def test_scale_equivariance(self, a, c):
        b = [v + 1.0 for v in a]
        base = rmse(TimeSeries(a).values, rec(b))
        scaled = rmse(TimeSeries([c * v for v in a]).values, rec([c * v for v in b]))
        assert scaled == pytest.approx(abs(c) * base, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "a, b, want",
        [([1e200, 0.0], [0.0, 0.0], 7.0710678118654755e199),
         ([1e308, 0.0], [-1e308, 0.0], 1.4142135623730951e308),
         ([-1e300, 1e300, 3e300], [1e300, -1e300, 3e300], 2e300 * math.sqrt(2 / 3))],
        ids=["square-overflows", "difference-overflows", "three-points"],
    )
    def test_errors_beyond_the_square_range(self, a, b, want):
        assert rmse(rec(a), rec(b)) == pytest.approx(want, rel=1e-15)

    def test_only_the_overflowing_signal_is_rescaled(self):
        original = rec([0.5, 0.25, 1e308, 0.0, 0.1, 0.2, 0.3])
        recon = rec([0.0, 0.0, -1e308, 0.0, 0.1, 0.0, 0.3])
        bounds = [0, 2, 4, 7]
        got = rmse_per_signal(original, recon, bounds)
        assert got[0] == rmse_per_slice(original[:2], recon[:2], [0, 2])[0]
        assert got[2] == rmse_per_slice(original[4:], recon[4:], [0, 3])[0]
        assert got[1] == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)

    @given(
        st.lists(st.tuples(st.integers(1, 40), st.integers(1, 5)), min_size=1, max_size=12),
        st.integers(0, 2**32 - 1),
    )
    @example([(1, 1)], 0)  # one signal in the block
    @example([(3, 1), (3, 4), (7, 1), (1, 1), (40, 3)], 1)  # runs of one and of several
    @example([(4097, 2), (2, 37), (1024, 1)], 2)  # long rows reduce pairwise
    @settings(max_examples=150, deadline=None)
    def test_ragged_block_equals_one_slice_at_a_time(self, runs, seed):
        rng = np.random.default_rng(seed)
        lengths = [n for n, count in runs for _ in range(count)]
        bounds = np.cumsum([0] + lengths)
        original = rng.normal(size=bounds[-1]) * 10.0 ** rng.integers(-3, 4)
        recon = original + rng.normal(size=bounds[-1]) * rng.choice([0.0, 1e-3, 1.0])
        got = rmse_per_signal(original, recon, bounds)
        # bit for bit, sign bits included
        assert np.array(got).tobytes() == np.array(rmse_per_slice(original, recon, bounds)).tobytes()


class TestAbruptness:
    def test_linear_ramp_is_zero(self, ts):
        assert abruptness(ts([0.0, 0.1, 0.2, 0.3])) == pytest.approx(0.0)

    def test_alternating_signal(self, ts):
        # diffs 1, -1, 1 -> mean 1/3, population SD sqrt(8/9)
        assert abruptness(ts([0.0, 1.0, 0.0, 1.0])) == pytest.approx(math.sqrt(8.0 / 9.0))

    def test_too_short_rejected(self, ts):
        with pytest.raises(InvalidInputError):
            abruptness(ts([1.0]))

    def test_steps_beyond_the_float_range(self, ts):
        # consecutive values 2e308 apart: the differences themselves overflow
        values = [1e308, -1e308, 1e308, 0.5]
        d = [Fraction(b) - Fraction(a) for a, b in zip(values, values[1:])]
        mean = sum(d) / len(d)
        var = sum((x - mean) ** 2 for x in d) / len(d)
        want = math.ldexp(math.sqrt(var / 4**1024), 1024)  # float(var) would overflow
        got = abruptness(ts(values))
        assert got == pytest.approx(want, rel=1e-15)
        assert mean_abruptness(*_flat([ts(values), ts(values)])) == got  # the sum overflows

    def test_mean_beyond_the_float_range_is_none(self, ts):
        # SD of the differences -2e308, 2e308, -2e308 is about 1.9e308
        assert abruptness(ts([1e308, -1e308, 1e308, -1e308])) == math.inf
        assert mean_abruptness(*_flat([ts([1e308, -1e308, 1e308, -1e308])])) is None
        assert mean_abruptness(*_flat([ts([0.0, 1.0]), ts([1.0])])) is None

    @pytest.mark.parametrize("block", [8, 100, metrics.BLOCK_POINTS])
    def test_ragged_mean_equals_one_signal_at_a_time(self, ts, block):
        rng = np.random.default_rng(7)
        lengths = [2, 2, 5, 5, 5, 3, 40, 40, 17, 2, 300, 300, 5]
        values = [rng.normal(size=n) * 10.0 ** rng.integers(-3, 4) for n in lengths]
        values[3] = np.array([1e308, -1e308, 1e308, 0.5, 0.0])  # its differences overflow
        with mock.patch.object(metrics, "BLOCK_POINTS", block):
            got = mean_abruptness(*_flat([ts(v) for v in values]))
        assert got == mean_abruptness_per_signal(values)

    @given(
        st.lists(st.tuples(st.integers(2, 300), st.integers(1, 6)), min_size=1, max_size=10),
        st.sampled_from([8, 100, metrics.BLOCK_POINTS]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_flat_runs_equal_one_signal_at_a_time(self, runs, block, seed):
        # runs of equal lengths, each cut into stacks of at most ``block`` points
        rng = np.random.default_rng(seed)
        lengths = [n for n, count in runs for _ in range(count)]
        values = [rng.normal(size=n) * 10.0 ** rng.integers(-3, 4) for n in lengths]
        bundle = DatasetBundle("d", [TimeSeries(v) for v in values])
        with mock.patch.object(metrics, "BLOCK_POINTS", block):
            got = mean_abruptness(bundle.values, bundle.offsets)
        assert got == mean_abruptness_per_signal(values)

    @given(rmse_vectors.filter(lambda v: len(v) >= 2), st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=100)
    def test_translation_invariant_and_matches_oracle(self, values, c):
        base = abruptness(TimeSeries(values))
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert base == pytest.approx(population_sd(diffs), abs=1e-9)
        shifted = abruptness(TimeSeries([v + c for v in values]))
        assert shifted == pytest.approx(base, abs=1e-7)


class TestRankMethods:
    def _ranked(self, scores):
        return DatasetResult("d", tuple(scores)).scores

    def test_single_method(self):
        d = DatasetResult("d", (MethodScore("only", (0.1, 0.2)),))
        assert d.rank_of("only") == 1

    def test_orders_by_mean(self):
        scores = [
            MethodScore("ZeChip", (0.0031,)),
            MethodScore("ZeChipC", (0.0029,)),
            MethodScore("ZeLiC", (0.0030,)),
        ]
        d = DatasetResult("d", tuple(scores))
        assert [s.method_name for s in d.scores] == ["ZeChipC", "ZeLiC", "ZeChip"]
        assert [d.rank_of(s.method_name) for s in d.scores] == [1, 2, 3]

    def test_tie_broken_by_name(self):
        scores = [
            MethodScore("beta", (0.5,)),
            MethodScore("alpha", (0.5,)),
        ]
        d = DatasetResult("d", tuple(scores))
        assert [s.method_name for s in d.scores] == ["alpha", "beta"]
        assert [d.rank_of(s.method_name) for s in d.scores] == [1, 2]

    def test_keeps_each_score_object(self):
        a, b = MethodScore("a", (0.1,)), MethodScore("b", (0.2,))
        ranked = DatasetResult("d", (b, a)).scores
        assert ranked[0] is a and ranked[1] is b

    def test_unknown_name_raises_key_error(self):
        d = DatasetResult("d", (MethodScore("a", (0.1,)),))
        with pytest.raises(KeyError):
            d.rank_of("b")
        with pytest.raises(KeyError):
            d.score_for("b")

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            DatasetResult("d", ())

    def test_mismatched_signal_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            DatasetResult("d", (MethodScore("a", (0.1,)), MethodScore("b", (0.1, 0.2))))

    @given(
        st.lists(st.integers(1, 10_000), min_size=2, max_size=8, unique=True).map(
            lambda scaled: [v / 1000.0 for v in scaled]
        )
    )
    @settings(max_examples=60)
    def test_rank_invariant_under_monotone_transform(self, means):
        # well-separated means: a transform one ulp from a tie could
        # otherwise collapse two floats and flip the name tie-break
        base = [MethodScore(f"m{i}", (v,)) for i, v in enumerate(means)]
        transformed = [
            MethodScore(f"m{i}", (math.exp(v) * 2.0,)) for i, v in enumerate(means)
        ]
        order_a = [s.method_name for s in self._ranked(base)]
        order_b = [s.method_name for s in self._ranked(transformed)]
        assert order_a == order_b


class TestAggregateReport:
    def _result(self, name, pairs):
        return DatasetResult(dataset=name, scores=tuple(MethodScore(m, (v,)) for m, v in pairs))

    def test_single_dataset_passthrough(self):
        res = self._result("d1", [("a", 0.1), ("b", 0.2)])
        report = aggregate_report([res])
        assert report.datasets == (res,)
        assert [s.method_name for s in report.summary] == ["a", "b"]
        assert report.summary[0].wins == 1 and report.summary[1].wins == 0

    def test_two_datasets_mean_rank_and_wins(self):
        r1 = self._result("d1", [("a", 0.1), ("b", 0.2)])
        r2 = self._result("d2", [("a", 0.4), ("b", 0.3)])
        report = aggregate_report([r1, r2])
        by_name = {s.method_name: s for s in report.summary}
        assert by_name["a"].mean_rank == 1.5 and by_name["b"].mean_rank == 1.5
        assert by_name["a"].wins == 1 and by_name["b"].wins == 1
        assert by_name["a"].mean_rmse == pytest.approx(0.25)

    def test_inconsistent_method_sets_rejected(self):
        r1 = self._result("d1", [("a", 0.1), ("b", 0.2)])
        r2 = self._result("d2", [("a", 0.1), ("c", 0.2)])
        with pytest.raises(InvalidInputError):
            aggregate_report([r1, r2])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate_report([])


class TestMethodScore:
    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_mean_and_median_derive_from_scores(self, values):
        s = MethodScore("m", tuple(values))
        assert s.mean_rmse == float(np.mean(values))
        assert s.median_rmse == float(np.median(values))

    def test_statistics_computed_once(self):
        s = MethodScore("m", (0.1, 0.4, 0.2))
        assert s.mean_rmse is s.mean_rmse
        assert s.median_rmse is s.median_rmse
        assert (s.mean_rmse, s.median_rmse) == (float(np.mean([0.1, 0.4, 0.2])), 0.2)
        assert s == MethodScore("m", (0.1, 0.4, 0.2))
        assert repr(s) == "MethodScore(method_name='m', per_signal_rmse=(0.1, 0.4, 0.2))"

    def test_no_scores_rejected(self):
        with pytest.raises(InvalidInputError):
            MethodScore("m", ())
