import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lebesgue_interp import (
    DatasetResult,
    InvalidInputError,
    MethodScore,
    ShapeError,
    TimeSeries,
    abruptness,
    aggregate_report,
    rank_methods,
    rmse,
)
from oracles import population_sd, rmse_plain

# quantized so squared differences cannot underflow to zero, which would
# break the "zero iff equal" direction for subnormal gaps
rmse_vectors = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False).map(lambda v: round(v, 6)),
    min_size=1,
    max_size=30,
)


def rec(values):
    return np.asarray(values, dtype=np.float64)


class TestRmse:
    def test_identical_is_zero(self, ts):
        assert rmse(ts([0.1, 0.2, 0.3]).values, rec([0.1, 0.2, 0.3])) == 0.0

    def test_constant_offset(self, ts):
        sig = np.linspace(0, 1, 17)
        assert rmse(ts(sig).values, rec(sig + 0.1)) == pytest.approx(0.1)

    def test_length_mismatch(self, ts):
        with pytest.raises(ShapeError):
            rmse(ts([1.0, 2.0]).values, rec([1.0]))

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


class TestAbruptness:
    def test_linear_ramp_is_zero(self, ts):
        assert abruptness(ts([0.0, 0.1, 0.2, 0.3])) == pytest.approx(0.0)

    def test_alternating_signal(self, ts):
        # diffs 1, -1, 1 -> mean 1/3, population SD sqrt(8/9)
        assert abruptness(ts([0.0, 1.0, 0.0, 1.0])) == pytest.approx(math.sqrt(8.0 / 9.0))

    def test_too_short_rejected(self, ts):
        with pytest.raises(InvalidInputError):
            abruptness(ts([1.0]))

    @given(rmse_vectors.filter(lambda v: len(v) >= 2), st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=100)
    def test_translation_invariant_and_matches_oracle(self, values, c):
        base = abruptness(TimeSeries(values))
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert base == pytest.approx(population_sd(diffs), abs=1e-9)
        shifted = abruptness(TimeSeries([v + c for v in values]))
        assert shifted == pytest.approx(base, abs=1e-7)


class TestRankMethods:
    def test_single_method(self):
        ranked = rank_methods([MethodScore("only", (0.1, 0.2))])
        assert ranked[0].rank_position == 1

    def test_orders_by_mean(self):
        scores = [
            MethodScore("ZeChip", (0.0031,)),
            MethodScore("ZeChipC", (0.0029,)),
            MethodScore("ZeLiC", (0.0030,)),
        ]
        ranked = rank_methods(scores)
        assert [s.method_name for s in ranked] == ["ZeChipC", "ZeLiC", "ZeChip"]
        assert [s.rank_position for s in ranked] == [1, 2, 3]

    def test_tie_broken_by_name(self):
        scores = [
            MethodScore("beta", (0.5,)),
            MethodScore("alpha", (0.5,)),
        ]
        ranked = rank_methods(scores)
        assert [s.method_name for s in ranked] == ["alpha", "beta"]
        assert [s.rank_position for s in ranked] == [1, 2]

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            rank_methods([])

    def test_mismatched_signal_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            rank_methods(
                [MethodScore("a", (0.1,)), MethodScore("b", (0.1, 0.2))]
            )

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
        order_a = [s.method_name for s in rank_methods(base)]
        order_b = [s.method_name for s in rank_methods(transformed)]
        assert order_a == order_b


class TestAggregateReport:
    def _result(self, name, pairs):
        return DatasetResult(
            dataset=name,
            scores=tuple(rank_methods([MethodScore(m, (v,)) for m, v in pairs])),
        )

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

    def test_unranked_scores_rejected(self):
        res = DatasetResult("d", (MethodScore("a", (0.1,)),))
        with pytest.raises(InvalidInputError):
            aggregate_report([res])


class TestMethodScore:
    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_mean_and_median_derive_from_scores(self, values):
        s = MethodScore("m", tuple(values))
        assert s.mean_rmse == float(np.mean(values))
        assert s.median_rmse == float(np.median(values))

    def test_no_scores_rejected(self):
        with pytest.raises(InvalidInputError):
            MethodScore("m", ())
