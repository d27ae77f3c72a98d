import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lebesgue_interp import (
    DatasetBundle,
    InfeasibleBudgetError,
    InvalidInputError,
    SampleBudget,
    TimeSeries,
    generate_synthetic_corpus,
    lebesgue_sample,
    riemann_sample,
    threshold_candidates,
    tune_threshold,
)
from oracles import points, trace_send_on_delta


class TestLebesgueSample:
    def test_threshold_trace(self, ts):
        s = lebesgue_sample(ts([0.0, 0.03, 0.06, 0.20, 0.21]), 0.05)
        assert points(s) == [(0, 0.0), (2, 0.06), (3, 0.20)]
        assert s.threshold == 0.05

    def test_constant_signal_never_fires(self, ts):
        s = lebesgue_sample(ts([0.5] * 10), 0.05)
        assert points(s) == [(0, 0.5)]

    def test_boundary_is_captured(self, ts):
        # the rule is >=, so a move of exactly one threshold fires
        s = lebesgue_sample(ts([0.0, 0.05]), 0.05)
        assert points(s) == [(0, 0.0), (1, 0.05)]

    def test_negative_threshold_rejected(self, ts):
        with pytest.raises(InvalidInputError):
            lebesgue_sample(ts([0.0, 1.0]), -0.01)

    def test_zero_threshold_takes_everything(self, ts):
        s = lebesgue_sample(ts([0.3, 0.3, 0.3]), 0.0)
        assert s.indices.tolist() == [0, 1, 2]

    @given(seed=st.integers(0, 10_000), threshold=st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_trace(self, seed, threshold):
        walk = generate_synthetic_corpus(seed, {"walk": 1}, 120).signals[0].values
        got = lebesgue_sample(TimeSeries(walk), threshold)
        want = trace_send_on_delta(walk.tolist(), threshold)
        assert list(zip(got.indices.tolist(), got.values.tolist())) == want

    @given(seed=st.integers(0, 10_000), threshold=st.sampled_from([0.02, 0.05, 0.1]))
    @settings(max_examples=60, deadline=None)
    def test_tolerated_region_containment(self, seed, threshold):
        walk = generate_synthetic_corpus(seed, {"walk": 1}, 200).signals[0].values
        s = lebesgue_sample(TimeSeries(walk), threshold)
        idx = s.indices
        for k in range(len(idx) - 1):
            between = walk[idx[k] + 1 : idx[k + 1]]
            assert np.all(np.abs(between - s.values[k]) < threshold)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_consecutive_sampled_values_differ_by_threshold(self, seed):
        walk = generate_synthetic_corpus(seed, {"walk": 1}, 200).signals[0].values
        s = lebesgue_sample(TimeSeries(walk), 0.05)
        if len(s) > 1:
            assert np.all(np.abs(np.diff(s.values)) >= 0.05)

    def test_count_monotone_on_spread_thresholds(self):
        # holds for well-separated thresholds on generic walks (and is
        # asserted as such), unlike the fine-grained case below
        for walk in generate_synthetic_corpus(202, {"walk": 50}, 300).signals:
            counts = [len(lebesgue_sample(walk, t)) for t in (0.02, 0.05, 0.1)]
            assert counts[0] >= counts[1] >= counts[2]

    def test_count_not_globally_monotone_in_threshold(self):
        # raising the threshold can delay a capture and leave the reference
        # lagging, setting up *more* captures later; this fixture pins the
        # behavior that makes tune_threshold's result one feasible boundary
        # rather than the smallest feasible threshold
        ts = TimeSeries([0.0, 0.4, 0.6, 0.1, 0.6])
        assert len(lebesgue_sample(ts, 0.4)) == 2
        assert len(lebesgue_sample(ts, 0.5)) == 4


class TestRiemannSample:
    def test_half_budget_indices(self, ts):
        s = riemann_sample(ts(np.zeros(10)), SampleBudget(0.5))
        assert s.indices.tolist() == [0, 2, 4, 7, 9]

    def test_full_budget_takes_all(self, ts):
        s = riemann_sample(ts(np.zeros(100)), SampleBudget(1.0))
        assert s.indices.tolist() == list(range(100))

    def test_fifteen_percent_spread(self, ts):
        s = riemann_sample(ts(np.arange(100.0)), SampleBudget(0.15))
        assert len(s) == 15
        assert s.indices[0] == 0 and s.indices[-1] == 99

    @given(n=st.integers(1, 400), fraction=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_count_and_monotonicity(self, n, fraction):
        s = riemann_sample(TimeSeries(np.zeros(n)), SampleBudget(fraction))
        k = max(1, int(np.ceil(fraction * n)))
        # the pre-dedup formula yields exactly k indices; dedup can only shrink
        raw = np.rint(np.arange(k) * (n - 1) / max(k - 1, 1)).astype(int) if k > 1 else np.array([0])
        assert raw.size == k
        assert np.all(np.diff(s.indices) > 0)
        assert s.indices[0] == 0
        if k >= 2:
            assert s.indices[-1] == n - 1

    def test_budget_range_validated(self):
        with pytest.raises(InvalidInputError):
            SampleBudget(0.0)
        with pytest.raises(InvalidInputError):
            SampleBudget(1.2)


class TestTuneThreshold:
    def test_full_budget_returns_zero_threshold(self, ts):
        bundle = DatasetBundle("b", (ts([0.0, 0.2, 0.1, 0.9]),))
        t, frac = tune_threshold(bundle, SampleBudget(1.0))
        assert t == 0.0 and frac == 1.0

    def test_ramp_example_against_exhaustive_scan(self, ts):
        ramp = ts(np.linspace(0.0, 1.0, 11))
        bundle = DatasetBundle("ramp", (ramp,))
        t, frac = tune_threshold(bundle, SampleBudget(0.5))
        assert frac <= 0.5
        # brute force: the returned threshold must reproduce the fraction and
        # no grid candidate may beat it while staying inside the budget
        cands = threshold_candidates(bundle)

        def frac_at(c):
            return len(trace_send_on_delta(ramp.values.tolist(), c)) / 11

        assert frac_at(t) == pytest.approx(frac)
        best = max((f for f in map(frac_at, cands) if f <= 0.5), default=None)
        assert frac == pytest.approx(best)

    def test_feasible_boundary_on_walks(self, ts):
        bundle = generate_synthetic_corpus(5, {"walk": 6}, 250, name="walks")
        signals = bundle.signals
        t, frac = tune_threshold(bundle, SampleBudget(0.2))
        assert frac <= 0.2
        cands = threshold_candidates(bundle)
        i = int(np.searchsorted(cands, t))
        assert cands[i] == t
        if i > 0:
            worse = np.mean(
                [len(trace_send_on_delta(s.values.tolist(), float(cands[i - 1]))) / len(s) for s in signals]
            )
            assert worse > 0.2

    def test_infeasible_budget_reports_minimum(self, ts):
        bundle = DatasetBundle("b", (ts([0.0, 1.0, 0.0, 1.0, 0.0]),))
        with pytest.raises(InfeasibleBudgetError) as err:
            tune_threshold(bundle, SampleBudget(0.05))
        assert err.value.min_achievable_fraction > 0.05

    @pytest.mark.parametrize(
        "values, want",
        [([0.3] * 10, (5e-324, 0.1)), ([0.0, 1.0, 0.0, 1.0], (np.nextafter(1.0, np.inf), 0.25))],
    )
    def test_threshold_above_largest_difference(self, ts, values, want):
        # every grid candidate keeps too much; the float above the largest
        # difference keeps only the first point
        bundle = DatasetBundle("b", (ts(values),))
        assert tune_threshold(bundle, SampleBudget(0.5)) == want

    def test_candidate_grid_covers_pairwise_differences(self, ts):
        fixtures = [
            [[0.0, 0.1, 0.3]],
            [[0.3, 0.1, 0.3, 0.0, 0.1], [0.2, 0.2]],  # duplicates
            [[-1.5, 2.0, -0.25, 2.0, 0.7], [-3.0, -1.5]],  # negative values
            [[5e-324, 0.0, -5e-324, 1e-300, 1.0, -1e300, 1e300, 1.0]],  # magnitudes
            [[0.4] * 6],  # constant
        ]
        for signals in fixtures:
            bundle = DatasetBundle("b", tuple(ts(v) for v in signals))
            naive = {0.0} | {
                abs(a - b) for v in signals for a, b in itertools.combinations(v, 2) if a != b
            }
            np.testing.assert_array_equal(threshold_candidates(bundle), sorted(naive))

    def test_candidate_grid_peak_memory(self):
        # the grid is quadratic in series length; building it may cost a few
        # times its own size, never a square matrix per signal on top
        bundle = generate_synthetic_corpus(3, {"walk": 4}, 400)
        tracemalloc.start()
        try:
            grid = threshold_candidates(bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * grid.nbytes

    @given(
        seed=st.integers(0, 5000),
        n=st.integers(4, 25),
        target=st.floats(0.1, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_contract_against_exhaustive_scan(self, seed, n, target):
        # small bundles allow evaluating every grid candidate by brute force
        rng = np.random.default_rng(seed)
        signals = tuple(
            TimeSeries(rng.uniform(0.0, 1.0, size=n).round(2)) for _ in range(2)
        )
        bundle = DatasetBundle("b", signals)
        # the grid plus the float above its largest difference, (d_max, inf)
        cands = threshold_candidates(bundle)
        cands = np.append(cands, np.nextafter(cands[-1], np.inf))

        def frac_at(c):
            return float(
                np.mean([len(trace_send_on_delta(s.values.tolist(), float(c))) / n for s in signals])
            )

        fracs = [frac_at(c) for c in cands]
        feasible = [f for f in fracs if f <= target]
        if not feasible:
            with pytest.raises(InfeasibleBudgetError):
                tune_threshold(bundle, SampleBudget(target))
            return
        t, frac = tune_threshold(bundle, SampleBudget(target))
        i = int(np.searchsorted(cands, t))
        assert cands[i] == t  # returned threshold comes from the grid
        assert frac == pytest.approx(fracs[i])
        assert frac <= target
        if i > 0:
            assert fracs[i - 1] > target  # immediate predecessor busts the budget
