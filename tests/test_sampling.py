import itertools
import math
import os
import signal
import threading
import time
import tracemalloc
from contextlib import contextmanager
from unittest import mock

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
    tune_threshold,
)
from lebesgue_interp import sampling
from lebesgue_interp.core import _normalize
from lebesgue_interp.sampling import (
    _DifferenceGrid,
    _by_run,
    _kept_fraction,
    _send_on_delta,
    threshold_candidates,
)
from oracles import (bisect_candidate_grid, bundle_fraction, periodic_positions, points,
                     trace_send_on_delta)


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


def _benchmark_shaped():
    """Normalized datasets shaped like the three benchmark workloads, each with
    the thresholds it is sampled at: one per family of 40 x 500 points, 20 walks
    of 1000 points, and UCR-like rows of 256, 128 and 176 points (bumps,
    sigmoids and waves at random scale and offset)."""
    for i, family in enumerate(("step", "ramp", "sine", "triangle", "walk")):
        yield generate_synthetic_corpus(i, {family: 40}, 500, family), (0.05,)
    yield generate_synthetic_corpus(4, {"walk": 20}, 1000), (0.004, 0.02, 0.1)
    rng = np.random.default_rng(4)
    for n, shape in ((256, "bump"), (128, "sigmoid"), (176, "wave")):
        x = np.linspace(0.0, 1.0, n)
        rows = []
        for _ in range(60):
            c, w = rng.uniform(0.25, 0.75), rng.uniform(0.05, 0.3)
            if shape == "bump":
                y = np.exp(-0.5 * ((x - c) / w) ** 2)
            elif shape == "sigmoid":
                y = 1.0 / (1.0 + np.exp((c - x) / w))
            else:
                y = np.sin(2.0 * np.pi * (x / w / 4.0 + c)) + 0.1 * x
            rows.append(TimeSeries(y * rng.uniform(0.5, 20.0) + rng.uniform(-50.0, 50.0)))
        raw = DatasetBundle(shape, rows)
        yield DatasetBundle._flat(shape, _normalize(raw.values, raw.offsets), raw.offsets), (0.05,)


def _traced(bundle, threshold):
    """Every signal's naive trace, as positions in the bundle's values."""
    return [a + i for a, ts in zip(bundle.offsets.tolist(), bundle.signals)
            for i, _ in trace_send_on_delta(ts.values.tolist(), threshold)]


# ragged rows, one-value rows, constant rows, and walks in steps of 1/64,
# where |v - ref| == 1/16 happens exactly
_rows = st.one_of(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
    st.tuples(st.floats(-1.0, 1.0), st.integers(1, 30)).map(lambda c: [c[0]] * c[1]),
    st.lists(st.integers(-8, 8), min_size=1, max_size=60).map(lambda k: list(np.cumsum(k) / 64)),
)


def _rows_of(n):
    """Rows of n values: floats, a constant, a walk in steps of 1/64, or values of +-1e308,
    whose differences overflow to +-inf."""
    return st.one_of(
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        st.floats(-1.0, 1.0).map(lambda c: [c] * n),
        st.lists(st.integers(-8, 8), min_size=n, max_size=n).map(lambda k: list(np.cumsum(k) / 64)),
        st.lists(st.sampled_from([-1e308, 0.0, 1e308]), min_size=n, max_size=n),
    )


@st.composite
def _lockstep_run(draw):
    """32 to 40 rows of one length from 1 to 12, each one of up to 6 rows drawn by ``_rows_of``."""
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(_rows_of(n), min_size=1, max_size=6))
    return [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), min_size=32, max_size=40))]


class TestFlatSampler:
    """One send-on-delta pass over a whole dataset, in lockstep over each run of 32 or more
    equal-length signals and in a loop over the rest, keeps, signal by signal, exactly the
    points the naive trace keeps."""

    def test_equals_naive_trace_on_benchmark_shaped_corpora(self):
        for bundle, thresholds in _benchmark_shaped():
            for t in thresholds:
                kept = _send_on_delta(bundle.values, bundle.offsets, t)
                assert kept.tolist() == _traced(bundle, t), (bundle.name, t)

    @given(rows=st.lists(_rows, min_size=1, max_size=8),
           threshold=st.sampled_from([0.0, 1 / 16, 0.05, 0.5, 1e3]))
    @settings(max_examples=200, deadline=None)
    def test_equals_naive_trace_on_edge_rows(self, rows, threshold):
        bundle = DatasetBundle("d", [TimeSeries(r) for r in rows])
        assert _send_on_delta(bundle.values, bundle.offsets, threshold).tolist() == _traced(
            bundle, threshold)

    @given(runs=st.lists(st.one_of(_lockstep_run(), st.lists(_rows, min_size=1, max_size=3)),
                         min_size=1, max_size=3),
           threshold=st.sampled_from([0.0, 1 / 16, 0.05, 0.5, 1e3]))
    @settings(max_examples=100, deadline=None)
    def test_lockstep_runs_equal_naive_trace(self, runs, threshold):
        bundle = DatasetBundle("d", [TimeSeries(r) for run in runs for r in run])
        assert _send_on_delta(bundle.values, bundle.offsets, threshold).tolist() == _traced(
            bundle, threshold)
        signals = [signal for _, signal in _by_run(bundle.values, bundle.offsets)]
        assert _kept_fraction(signals, threshold) == bundle_fraction(bundle, threshold)

    def test_runs_of_32_signals_take_the_lockstep(self):
        # 31 signals of 7 points loop; the 32 of 5 points after them run in lockstep, in both the
        # sampler and the tuner's probes
        rng = np.random.default_rng(3)
        bundle = DatasetBundle("d", [TimeSeries(rng.normal(size=n)) for n in [7] * 31 + [5] * 32])
        paths = [(a, type(signal)) for a, signal in _by_run(bundle.values, bundle.offsets)]
        assert paths == [(7 * i, list) for i in range(31)] + [(217, np.ndarray)]
        with mock.patch.object(sampling, "_fires", wraps=sampling._fires) as fires:
            kept = _send_on_delta(bundle.values, bundle.offsets, 0.5)
            assert len(fires.call_args_list) == 1
            tune_threshold(bundle, SampleBudget(0.5))
        assert len(fires.call_args_list) > 2
        for call in fires.call_args_list:
            assert np.array_equal(call.args[0], bundle.values[217:].reshape(32, 5))
        assert kept.tolist() == _traced(bundle, 0.5)

    @staticmethod
    def _sampling_peak(values, offsets):
        for _ in range(2):  # the first call's allocations are not the dataset's
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                _send_on_delta(_normalize(values, offsets), offsets, 0.05)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        return peak

    def test_peak_memory_of_normalizing_and_sampling_a_dataset(self):
        """300 x 256 points, as a UCR dataset: one run of equal-length signals, sampled in
        lockstep, which holds one bool per value of the run besides the kept positions, so no
        step holds the dataset as Python floats."""
        rng = np.random.default_rng(4)
        values = np.cumsum(rng.normal(size=(300, 256)), axis=1).ravel()
        offsets = np.arange(301) * 256
        assert self._sampling_peak(values, offsets) <= 3 * values.nbytes

    def test_peak_memory_of_normalizing_and_sampling_short_runs(self):
        """300 signals of 256 and 255 points in runs of 30, each shorter than the lockstep's: the
        loop takes each signal to a Python list on its own, so no step holds the dataset as
        Python floats."""
        rng = np.random.default_rng(4)
        lengths = np.repeat(np.tile([256, 255], 5), 30)
        values = np.cumsum(rng.normal(size=int(lengths.sum())))
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        assert self._sampling_peak(values, offsets) <= 3 * values.nbytes


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

    @pytest.mark.parametrize("fraction", [1e-12, 0.05, 0.15, 1 / 3, 0.9999999999999999, 1.0])
    @pytest.mark.parametrize("lengths", [
        [1, 2, 3, 1, 7, 100, 1, 55, 1000, 1, 2],  # ragged, 1-point signals among them
        [140] * 40,
        [1] * 5,
        [1000] * 3 + [999] * 2 + [1] + [1000],
    ], ids=["ragged", "equal", "one-point", "runs"])
    def test_every_signal_of_a_dataset_follows_the_formula(self, lengths, fraction):
        self._check_periodic(lengths, fraction)

    @given(lengths=st.lists(st.integers(1, 400), min_size=1, max_size=8),
           fraction=st.floats(0.0, 1.0, exclude_min=True))
    @settings(max_examples=60, deadline=None)
    def test_every_signal_follows_the_formula_at_any_fraction(self, lengths, fraction):
        self._check_periodic(lengths, fraction)

    @staticmethod
    def _check_periodic(lengths, fraction):
        """``_periodic`` over the signals of ``lengths`` is the one-signal formula at each
        offset, and it keeps all k points of every signal: k <= n leaves none to drop."""
        offsets = np.cumsum([0, *lengths])
        got = sampling._periodic(offsets, SampleBudget(fraction))
        assert got.dtype == np.int64
        assert got.tolist() == [a + x for a, n in zip(offsets.tolist(), lengths)
                                for x in periodic_positions(n, fraction)]
        assert np.all(np.diff(got) > 0)  # so within each signal too
        assert got.size == sum(max(1, math.ceil(fraction * n)) for n in lengths)

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

    def test_infeasible_budget_names_the_dataset(self, ts):
        bundle = DatasetBundle("Spiky", (ts([0.0, 1.0, 0.0, 1.0]),))
        with pytest.raises(InfeasibleBudgetError) as err:
            tune_threshold(bundle, SampleBudget(0.1))
        assert str(err.value) == (
            "dataset 'Spiky': budget 0.1 infeasible: minimum achievable fraction is 0.25"
        )
        assert err.value.min_achievable_fraction == 0.25

    def test_largest_difference_at_the_float_ceiling_is_infeasible(self, ts):
        # no finite threshold lies above a difference of the largest float, so the least
        # fraction is the one at that difference; only library callers reach this, as bench
        # normalizes first
        bundle = DatasetBundle("Ceiling", (ts([0.0, 1.7976931348623157e308]),))
        with pytest.raises(InfeasibleBudgetError) as err:
            tune_threshold(bundle, SampleBudget(0.5))
        assert str(err.value) == (
            "dataset 'Ceiling': budget 0.5 infeasible: minimum achievable fraction is 1"
        )
        assert err.value.min_achievable_fraction == 1.0

    @pytest.mark.parametrize(
        "values, want",
        [([0.3] * 10, (5e-324, 0.1)), ([0.0, 1.0, 0.0, 1.0], (np.nextafter(1.0, np.inf), 0.25))],
    )
    def test_threshold_above_largest_difference(self, ts, values, want):
        # every grid candidate keeps too much; the float above the largest
        # difference keeps only the first point
        bundle = DatasetBundle("b", (ts(values),))
        assert tune_threshold(bundle, SampleBudget(0.5)) == want

    def test_values_spanning_more_than_float64_rejected(self, ts):
        # the largest difference overflows: say so before the grid pass, warning-free
        bundle = DatasetBundle("wide", (ts([0.0, 0.5, 1.0]), ts([1e308, 0.0, -1e308])))
        msg = "dataset 'wide': the values of signal 1 span more than float64; normalize first"
        with pytest.raises(InvalidInputError, match=msg):
            tune_threshold(bundle, SampleBudget(0.5))

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


@contextmanager
def bucket_pairs(size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_BUCKET_PAIRS", size)
        yield


@contextmanager
def mark_pairs(every):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_MARK_PAIRS", every)
        yield


@contextmanager
def usable_cpus(n):
    """os.sched_getaffinity reports n usable CPUs: the grid pass forks on two or more,
    and on one it runs whole in this process, where a peak or a count sees all of it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        yield


@st.composite
def signal_values(draw):
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["lattice", "ulps", "wide", "constant"]))
    if kind == "lattice":  # many pairs share one difference
        step = draw(st.sampled_from([0.1, 0.01, 0.25, 3.0]))
        return [k * step for k in draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))]
    if kind == "ulps":  # neighbouring floats, where rounding decides every comparison
        base = draw(st.floats(-2.0, 2.0))
        ks = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        return (base + np.spacing(base) * np.array(ks, dtype=float)).tolist()
    if kind == "wide":
        return draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    return [draw(st.floats(-1e6, 1e6))] * n


bundles = st.lists(signal_values(), min_size=1, max_size=5).map(
    lambda signals: DatasetBundle("b", tuple(TimeSeries(v) for v in signals))
)


class TestBoundedTuning:
    """``tune_threshold`` reads the grid from value buckets; with the bucket
    size patched small, every bundle spans many buckets."""

    @given(bundle=bundles, target=st.floats(0.01, 1.0), size=st.sampled_from([1, 2, 5, 40]))
    @settings(max_examples=300, deadline=None)
    def test_equals_bisection_over_whole_grid(self, bundle, target, size):
        want = bisect_candidate_grid(bundle, target)
        with bucket_pairs(size):
            if want[0] == "infeasible":
                with pytest.raises(InfeasibleBudgetError) as err:
                    tune_threshold(bundle, SampleBudget(target))
                assert err.value.min_achievable_fraction == want[1]
            else:
                assert tune_threshold(bundle, SampleBudget(target)) == want

    @given(bundle=bundles, size=st.sampled_from([1, 3, 40]))
    @settings(max_examples=200, deadline=None)
    def test_grid_read_by_rank(self, bundle, size):
        with bucket_pairs(size):
            grid = _DifferenceGrid(bundle)
            got = [grid[r] for r in range(len(grid))]
        assert got == threshold_candidates(bundle).tolist()

    def test_sums_that_cancel(self):
        # u[0] + 1 is exactly 2**-53, yet u[j] - u[0] rounds to 1 for the two
        # values above it too: a search on the sum alone would put those pairs
        # in the bucket above 1 and count the value 1 twice
        base = 2.0**-53
        values = [-1 + base, base, base + 2.0**-60, base + 2.0**-55, 2.0]
        bundle = DatasetBundle("b", (TimeSeries(values),))
        for size in (1, 2, 40):
            with bucket_pairs(size):
                grid = _DifferenceGrid(bundle)
                assert [grid[r] for r in range(len(grid))] == threshold_candidates(bundle).tolist()

    def test_values_near_float_max(self):
        # every difference fits in float64, but u[i] + b overflows for the largest u[i]
        signals = ([1e308, 0.0, 5.0, -7e307, 0.3], [1.0, 0.0, 5.0, 1e308, 0.3])
        bundle = DatasetBundle("b", tuple(TimeSeries(v) for v in signals))
        for target in (0.2, 0.5, 0.8):
            want = bisect_candidate_grid(bundle, target)
            assert tune_threshold(bundle, SampleBudget(target)) == want

    def test_walks_across_default_buckets(self):
        # 2 x 1200 points hold about 1.4M pairs: several buckets at the real size
        bundle = generate_synthetic_corpus(9, {"walk": 2}, 1200)
        for target in (0.05, 0.15, 0.5):
            assert tune_threshold(bundle, SampleBudget(target)) == bisect_candidate_grid(bundle, target)

    @given(bundle=bundles, q=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_count_only_fraction_is_bit_identical(self, bundle, q):
        cands = threshold_candidates(bundle)
        signals = [ts.values.tolist() for ts in bundle.signals]
        for t in (float(cands[int(q * (cands.size - 1))]), q, float(cands[-1])):
            assert _kept_fraction(signals, t) == bundle_fraction(bundle, t)

    def test_peak_memory_does_not_grow_with_length(self):
        def peak(n):
            bundle = generate_synthetic_corpus(3, {"walk": 2}, n)
            tracemalloc.start()
            try:
                with usable_cpus(1):
                    tune_threshold(bundle, SampleBudget(0.15))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 16x the pairs of the short run, which already fills a few buckets
        assert peak(4000) <= 1.5 * peak(1000)

    def test_peak_memory_of_walks_at_default_buckets(self):
        # the pass holds one bucket buffer, allocated once, plus gather
        # temporaries of about a quarter of a bucket
        bundle = generate_synthetic_corpus(4, {"walk": 20}, 1000)
        tracemalloc.start()
        try:
            with usable_cpus(1):
                tune_threshold(bundle, SampleBudget(0.15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 8 * sampling._BUCKET_PAIRS

    def test_grid_pass_edge_count(self):
        # pieces aimed at three quarters of a bucket need about 4/3 edges per
        # bucket's worth of pairs, 52 here; half-bucket pieces need 78
        bundle = generate_synthetic_corpus(4, {"walk": 20}, 1000)
        calls = []
        ends = _DifferenceGrid._ends
        with usable_cpus(1), pytest.MonkeyPatch.context() as mp:
            mp.setattr(_DifferenceGrid, "_ends", lambda grid, b: calls.append(b) or ends(grid, b))
            _DifferenceGrid(bundle)
        assert len(calls) <= 60

    def test_peak_memory_is_deterministic(self):
        # every buffer is allocated once per pass, so two passes peak alike; the first call in
        # a process also loads modules numpy imports lazily, so it runs untraced
        bundle = generate_synthetic_corpus(3, {"walk": 2}, 1000)
        tune_threshold(bundle, SampleBudget(0.15))

        def peak():
            tracemalloc.start()
            try:
                with usable_cpus(1):
                    tune_threshold(bundle, SampleBudget(0.15))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        first, second = peak(), peak()
        assert abs(first - second) <= 0.01 * first


# Fixed bundles for the forked grid pass. In the lattice, the difference 0.5
# is rare and 1.0 common, so at every patched bucket size below a bucket of
# one value (more pairs than a bucket, all equal) falls between two sorted ones.
LATTICE = DatasetBundle("lattice", (TimeSeries([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),))
ULPS = DatasetBundle("ulps", tuple(
    TimeSeries((base + np.spacing(base) * np.array(ks, dtype=float)).tolist())
    for base, ks in ((1.0, [-6, -5, -3, 0, 1, 2, 3, 6]), (-0.3, [4, -2, 0, 1, 5, -6, 2]))
))
WALKS = generate_synthetic_corpus(5, {"walk": 2}, 60)  # 3,540 pairs: a grid of many 40-pair buckets


@contextmanager
def every_worker_reaped(seconds=30):
    """Fail the test instead of hanging when the block has not ended after ``seconds``
    (an alarm, as a thread would turn the fork off), and check that no child process
    and no thread outlives it."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    threads = threading.active_count()
    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


@contextmanager
def forks():
    """The forks this process makes, counted by a wrapper around os.fork."""
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        yield fork


class _SortFails(np.ndarray):
    def sort(self, *args, **kwargs):
        raise RuntimeError("sort failed")


class TestGridPipeline:
    """The grid pass shares its value range out over forked workers, one per usable CPU,
    and marks each sorted bucket: the rank reads do not depend on the CPU count, the bucket
    size or the mark spacing, every worker ends with the pass, whatever ends it, and an
    error in a worker's share raises as in the one-process pass."""

    @pytest.mark.parametrize("bundle", [LATTICE, ULPS], ids=["lattice", "ulps"])
    @pytest.mark.parametrize("size", [1, 2, 5, 40])
    def test_grid_read_by_rank_on_forked_passes(self, bundle, size):
        want = threshold_candidates(bundle).tolist()
        for cpus, every in itertools.product([1, 2, 8], [1, 2, 3]):
            with bucket_pairs(size), mark_pairs(every), usable_cpus(cpus), every_worker_reaped():
                grid = _DifferenceGrid(bundle)
                assert [grid[r] for r in range(len(grid))] == want, (cpus, every)

    @given(bundle=bundles, cpus=st.sampled_from([1, 2, 8]), size=st.sampled_from([1, 2, 5, 40]),
           every=st.sampled_from([1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_any_grid_read_by_rank_on_forked_passes(self, bundle, cpus, size, every):
        with bucket_pairs(size), mark_pairs(every), usable_cpus(cpus), every_worker_reaped():
            grid = _DifferenceGrid(bundle)
            got = [grid[r] for r in range(len(grid))]
        assert got == threshold_candidates(bundle).tolist()

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_lattice_has_a_one_value_bucket_between_sorted_ones(self, size):
        kinds = []
        pieces = _DifferenceGrid._pieces

        def recorded(grid, *args):
            for piece in pieces(grid, *args):
                kinds.append("one" if piece[2] > size else "sorted")
                yield piece

        with bucket_pairs(size), usable_cpus(1), pytest.MonkeyPatch.context() as mp:
            mp.setattr(_DifferenceGrid, "_pieces", recorded)
            _DifferenceGrid(LATTICE)
        assert ["sorted", "one", "sorted"] in [kinds[i:i + 3] for i in range(len(kinds))]

    def test_one_bucket_grid_searches_its_rows_once(self):
        # no pair's difference exceeds the largest span, so every row ends at its signal's
        # end before any search: the one search is the pass's, at its one edge
        calls, ends = [], _DifferenceGrid._ends

        def counted(grid, b):
            calls.append(b)
            return ends(grid, b)

        with pytest.MonkeyPatch.context() as mp:  # 3,540 pairs: one bucket at the real size
            mp.setattr(_DifferenceGrid, "_ends", counted)
            _DifferenceGrid(WALKS)
        assert calls == [float(threshold_candidates(WALKS)[-1])]

    def test_helper_ends_with_a_tune(self):
        with bucket_pairs(40), usable_cpus(2), every_worker_reaped(), forks() as fork:
            got = tune_threshold(WALKS, SampleBudget(0.3))
        assert fork.call_count == 1
        assert got == bisect_candidate_grid(WALKS, 0.3)

    def test_helper_ends_with_an_infeasible_budget(self):
        with bucket_pairs(40), usable_cpus(2), every_worker_reaped(), forks() as fork:
            with pytest.raises(InfeasibleBudgetError):
                tune_threshold(WALKS, SampleBudget(0.01))
        assert fork.call_count == 1

    def test_error_in_the_pass_reaches_the_caller(self):
        # every edge at the largest difference fails: it ends the last run, so that run's
        # pass fails wherever it runs, and so does its pass run again here
        top = float(threshold_candidates(WALKS)[-1])
        ends = _DifferenceGrid._ends

        def top_fails(grid, b):
            if b == top:
                raise RuntimeError("edge failed")
            return ends(grid, b)

        with bucket_pairs(40), usable_cpus(2), pytest.MonkeyPatch.context() as mp:
            mp.setattr(_DifferenceGrid, "_ends", top_fails)
            with every_worker_reaped(), forks() as fork, pytest.raises(RuntimeError,
                                                                       match="edge failed"):
                tune_threshold(WALKS, SampleBudget(0.3))
        assert fork.call_count == 1

    def test_error_in_the_helpers_sort_reaches_the_caller(self):
        # the bucket that holds the largest difference, the worker's last, cannot be sorted
        top = float(threshold_candidates(WALKS)[-1])
        gather = _DifferenceGrid._gather

        def last_fails(grid, lo, hi, out):
            d = gather(grid, lo, hi, out)
            return d.view(_SortFails) if d.max() == top else d

        with bucket_pairs(40), usable_cpus(2), pytest.MonkeyPatch.context() as mp:
            mp.setattr(_DifferenceGrid, "_gather", last_fails)
            with every_worker_reaped(), forks() as fork, pytest.raises(RuntimeError,
                                                                       match="sort failed"):
                tune_threshold(WALKS, SampleBudget(0.3))
        assert fork.call_count == 1

    def test_share_of_a_worker_that_dies_is_passed_here(self):
        here, gather = os.getpid(), _DifferenceGrid._gather

        def dies_in_a_worker(grid, lo, hi, out):
            if os.getpid() != here:
                os.kill(os.getpid(), signal.SIGKILL)  # as the kernel's OOM killer would
            return gather(grid, lo, hi, out)

        with bucket_pairs(40), usable_cpus(2), pytest.MonkeyPatch.context() as mp:
            mp.setattr(_DifferenceGrid, "_gather", dies_in_a_worker)
            with every_worker_reaped(), forks() as fork:
                got = tune_threshold(WALKS, SampleBudget(0.3))
        assert fork.call_count == 1
        assert got == bisect_candidate_grid(WALKS, 0.3)

    def test_an_interrupt_here_kills_and_reaps_the_workers(self):
        here, gather = os.getpid(), _DifferenceGrid._gather

        def interrupted_here(grid, lo, hi, out):
            # a worker outlasts the test unless killed, but neither this process nor a minute
            deadline = time.monotonic() + 60
            while os.getpid() != here and os.getppid() == here and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

        with bucket_pairs(40), usable_cpus(8), pytest.MonkeyPatch.context() as mp:
            mp.setattr(_DifferenceGrid, "_gather", interrupted_here)
            with every_worker_reaped(), forks() as fork, pytest.raises(KeyboardInterrupt):
                tune_threshold(WALKS, SampleBudget(0.3))
        assert fork.call_count == 7
