import functools
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lebesgue_interp import (
    DatasetBundle,
    InfeasibleBudgetError,
    InvalidInputError,
    ParseError,
    ReconstructionParams,
    SampledSeries,
    TimeSeries,
    lebesgue_sample,
    normalize_unit_interval,
)
from lebesgue_interp.core import _fork_map, _normalize
from lebesgue_interp.sampling import _kept_fraction
from oracles import normalize_scalar, points

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

    def test_rejects_two_dimensions(self):
        with pytest.raises(InvalidInputError,
                           match=r"^signal must be one-dimensional, got shape \(2, 2\)$"):
            TimeSeries([[0.0, 1.0], [2.0, 3.0]])

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


class TestDatasetBundle:
    def test_signals_held_end_to_end(self):
        rows = [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]
        bundle = DatasetBundle("d", [TimeSeries(r) for r in rows])
        assert len(bundle) == 3
        assert bundle.offsets.tolist() == [0, 2, 3, 6]
        assert bundle.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert [ts.values.tolist() for ts in bundle.signals] == rows
        with pytest.raises(ValueError):
            bundle.values[0] = 0.0
        with pytest.raises(ValueError):
            bundle.signals[2].values[0] = 0.0

    def test_empty_bundle_rejected(self):
        with pytest.raises(InvalidInputError):
            DatasetBundle("d", ())


class TestFlatNormalize:
    """One pass over a whole dataset gives each signal the bits that
    normalizing it alone gives."""

    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                             max_size=12), min_size=1, max_size=6))
    @example([[1e308, -1e308, 0.0], [3.0, 3.0], [0.5]])  # the halving path, a constant, one value
    @example([[5e-324, -0.0, 0.0, -5e-324], [-0.0, 0.0], [2.2e-308, -1.7e308, 1.7e308, 1e-320]])
    def test_equals_one_signal_at_a_time(self, rows):
        bundle = DatasetBundle("d", [TimeSeries(r) for r in rows])
        got = _normalize(bundle.values, bundle.offsets)
        alone = [normalize_unit_interval(TimeSeries(r)).values for r in rows]
        # bit for bit, sign bits included, against the library and the scalar oracle
        assert got.tobytes() == np.concatenate(alone).tobytes()
        assert got.tobytes() == np.concatenate([normalize_scalar(r) for r in rows]).tobytes()
        assert not got.flags.writeable


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

    def test_more_indices_than_values_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^indices and values must be equal-length "
                                                    r"1-d arrays, got \(3,\) vs \(2,\)$"):
            SampledSeries(np.array([0, 1, 2]), np.array([0.0, 1.0]), 5, 0.0)

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

    def test_negative_max_distance_rejected(self):
        with pytest.raises(InvalidInputError,
                           match=r"^subsequent_max_distance must be >= 0 or None, got -1$"):
            ReconstructionParams(0.05, subsequent_max_distance=-1)


@pytest.mark.parametrize(
    "error, attributes",
    [
        (InvalidInputError("threshold must be finite and >= 0, got -1.0"), {}),
        (ParseError("a.csv: cannot parse 'x' at row 3, column 1", row=3, column=1),
         {"row": 3, "column": 1}),
        (InfeasibleBudgetError("walks: no threshold keeps at most 10% of the points",
                               min_achievable_fraction=0.2), {"min_achievable_fraction": 0.2}),
    ],
    ids=["invalid-input", "parse", "infeasible-budget"],
)
def test_every_error_survives_pickling(error, attributes):
    # a forked job's error can only be carried home if it pickles
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(error, protocol))
        assert type(back) is type(error) and isinstance(back, ValueError)
        assert str(back) == str(error) and back.args == error.args
        assert {name: getattr(back, name) for name in attributes} == attributes


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_threshold_rule_is_the_same_everywhere(threshold):
    makers = [
        lambda: SampledSeries(np.array([0]), np.array([0.0]), 5, threshold),
        lambda: ReconstructionParams(threshold),
        lambda: lebesgue_sample(TimeSeries([0.0, 1.0]), threshold),
        lambda: _kept_fraction([[0.0, 1.0]], threshold),
    ]
    for make in makers:
        with pytest.raises(InvalidInputError) as err:
            make()
        assert str(err.value) == f"threshold must be finite and >= 0, got {threshold}"


WEIGHTS = [3, 9, 1, 4, 4, 2, 7, 5]  # job 1 is the heaviest


def _logged_jobs(log, fails, weights=WEIGHTS):
    """One job per weight: job i appends its pid and i to ``log``, a file the workers
    inherit, raises where ``fails(i)`` is true and returns 10 * i."""
    def job(i):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {i}\n")
        if fails(i):
            raise ValueError(f"job {i} failed")
        return 10 * i

    return [functools.partial(job, i) for i in range(len(weights))]


def _runs(log):
    """Each process's pid -> the jobs it ran, in the order it ran them."""
    runs = {}
    for line in log.read_text().splitlines():
        pid, i = map(int, line.split())
        runs.setdefault(pid, []).append(i)
    return runs


def _fork_map_on(cpus, jobs, weights, monkeypatch):
    """``_fork_map(jobs, weights)`` with ``cpus`` usable CPUs; every worker is reaped."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    try:
        return _fork_map(jobs, weights)
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
class TestForkMap:
    """One process per usable CPU, at most one per job, each running its share of the jobs
    in job order: no job runs twice or is lost, whatever the CPU count."""

    def test_every_job_runs_once_and_returns_in_job_order(self, tmp_path, monkeypatch, cpus):
        log = tmp_path / "log"
        got = _fork_map_on(cpus, _logged_jobs(log, lambda i: False), WEIGHTS, monkeypatch)
        assert got == [10 * i for i in range(len(WEIGHTS))]
        runs = _runs(log)
        assert len(runs) == min(cpus, len(WEIGHTS))
        assert sorted(i for ran in runs.values() for i in ran) == list(range(len(WEIGHTS)))
        assert all(ran == sorted(ran) for ran in runs.values())

    def test_the_heaviest_job_runs_here(self, tmp_path, monkeypatch, cpus):
        log, weights = tmp_path / "log", WEIGHTS[::-1]  # job 6 is the heaviest
        _fork_map_on(cpus, _logged_jobs(log, lambda i: False), weights, monkeypatch)
        assert 6 in _runs(log)[os.getpid()]

    def test_the_rest_of_a_failed_share_runs_here(self, tmp_path, monkeypatch, cpus):
        # a worker's second job raises there, and only there
        log, here, seen = tmp_path / "log", os.getpid(), []

        def second_in_a_worker_fails(i):
            if os.getpid() != here:
                seen.append(i)  # each worker starts from this process's empty list
            return len(seen) == 2

        jobs = _logged_jobs(log, second_in_a_worker_fails)
        got = _fork_map_on(cpus, jobs, WEIGHTS, monkeypatch)
        assert got == [10 * i for i in range(len(WEIGHTS))]
        runs = _runs(log)
        mine = runs.pop(here)
        assert all(len(ran) <= 2 for ran in runs.values())
        done_there = {ran[0] for ran in runs.values()}
        assert sorted(mine) == sorted(set(range(len(WEIGHTS))) - done_there)
        assert all(ran[1] in mine for ran in runs.values() if len(ran) == 2)
        if cpus == 2:  # the worker's share holds several jobs, so one of them failed
            assert any(len(ran) == 2 for ran in runs.values())

    def test_the_first_failing_job_in_job_order_raises(self, tmp_path, monkeypatch, cpus):
        jobs = _logged_jobs(tmp_path / "log", lambda i: i in (2, 5))
        with pytest.raises(ValueError, match="job 2 failed"):
            _fork_map_on(cpus, jobs, WEIGHTS, monkeypatch)

    def test_a_job_that_failed_here_does_not_run_again(self, tmp_path, monkeypatch, cpus):
        # job 1, the heaviest, runs here and raises; jobs 0 and 2 run in a worker when
        # there is one, and here before job 1 when there is not
        log, weights = tmp_path / "log", [1, 5, 1]
        jobs = _logged_jobs(log, lambda i: i == 1, weights)
        with pytest.raises(ValueError, match="job 1 failed"):
            _fork_map_on(cpus, jobs, weights, monkeypatch)
        runs = _runs(log)
        assert runs.pop(os.getpid()) == ([0, 1] if cpus == 1 else [1])
        assert all(1 not in ran for ran in runs.values())
