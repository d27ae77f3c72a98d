import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lebesgue_interp import (
    DatasetBundle,
    ExperimentConfig,
    ExperimentMode,
    InfeasibleBudgetError,
    InvalidInputError,
    METHODS,
    MethodReport,
    ParseError,
    ReconstructionParams,
    SampleBudget,
    TimeSeries,
    abruptness,
    emit_report,
    generate_synthetic_corpus,
    interp_linear,
    interp_zoh,
    lebesgue_sample,
    load_ucr_dataset,
    merge_bundles,
    normalize_unit_interval,
    riemann_sample,
    rmse,
    run_benchmark,
    run_experiment,
)
from lebesgue_interp import bench
from conftest import PER_SIGNAL
from oracles import rmse_plain, trace_send_on_delta


@pytest.fixture
def tsv_pair(tmp_path):
    train = tmp_path / "Toy_TRAIN.tsv"
    test = tmp_path / "Toy_TEST.tsv"
    train.write_text("1\t0.0\t0.1\t0.2\t0.3\n2\t1.0\t0.9\t0.8\t0.7\n")
    test.write_text("1\t0.5\t0.5\t0.5\t0.5\n")
    return train, test


class TestLoadUcrDataset:
    def test_tsv_pair_concatenated(self, tsv_pair):
        train, test = tsv_pair
        bundle = load_ucr_dataset(train, test)
        assert bundle.name == "Toy"
        assert len(bundle) == 3
        assert all(len(s) == 4 for s in bundle.signals)
        np.testing.assert_array_equal(bundle.signals[0].values, [0.0, 0.1, 0.2, 0.3])
        np.testing.assert_array_equal(bundle.signals[2].values, [0.5, 0.5, 0.5, 0.5])

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope_TRAIN.tsv"
        with pytest.raises(FileNotFoundError, match="nope_TRAIN.tsv"):
            load_ucr_dataset(missing)

    def test_unparsable_number_reports_position(self, tmp_path):
        bad = tmp_path / "Bad_TRAIN.tsv"
        bad.write_text("1\t0.0\t0.1\n1\t0.0\toops\n")
        with pytest.raises(ParseError) as err:
            load_ucr_dataset(bad)
        assert err.value.row == 1 and err.value.column == 1

    def test_ragged_rows_load_and_run(self, tmp_path):
        ragged = tmp_path / "Ragged_TRAIN.tsv"
        ragged.write_text("1\t0.0\t0.1\t0.2\n1\t0.0\t0.1\n")
        bundle = load_ucr_dataset(ragged)
        assert [len(s) for s in bundle.signals] == [3, 2]
        fixed = run_experiment(bundle, ExperimentConfig())
        assert fixed.datasets[0].achieved_fraction == 1.0
        budget = run_experiment(
            bundle, ExperimentConfig(mode=ExperimentMode.BUDGET, target_fraction=0.5)
        )
        assert budget.datasets[0].achieved_fraction == (1 / 3 + 1 / 2) / 2

    def test_trailing_nan_padding_trimmed(self, tmp_path):
        padded = tmp_path / "Padded_TRAIN.tsv"
        padded.write_text("1\t0.1\t0.2\tNaN\tNaN\n")
        np.testing.assert_array_equal(load_ucr_dataset(padded).signals[0].values, [0.1, 0.2])

    def test_row_without_values_rejected(self, tmp_path):
        bad = tmp_path / "Empty_TRAIN.tsv"
        bad.write_text("1\t0.1\n1\tNaN\tNaN\n")
        with pytest.raises(ParseError, match="Empty_TRAIN.tsv: row 1 has no values"):
            load_ucr_dataset(bad)

    @pytest.mark.parametrize("row", ["1\t0.1\tNaN\t0.2", "1\t0.1\tinf\tNaN"], ids=["nan", "inf"])
    def test_interior_non_finite_reports_position(self, tmp_path, row):
        bad = tmp_path / "Gap_TRAIN.tsv"
        bad.write_text(row + "\n")
        with pytest.raises(ParseError, match="Gap_TRAIN.tsv.*row 0, column 1") as err:
            load_ucr_dataset(bad)
        assert err.value.row == 0 and err.value.column == 1


class TestSyntheticCorpus:
    def test_deterministic_per_seed(self):
        a = generate_synthetic_corpus(1, {"step": 10}, length=100)
        b = generate_synthetic_corpus(1, {"step": 10}, length=100)
        for sa, sb in zip(a.signals, b.signals):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_different_seed_differs(self):
        a = generate_synthetic_corpus(1, {"walk": 2}, length=100)
        b = generate_synthetic_corpus(2, {"walk": 2}, length=100)
        assert any(
            not np.array_equal(sa.values, sb.values) for sa, sb in zip(a.signals, b.signals)
        )

    def test_sine_smoother_than_steps(self):
        sines = generate_synthetic_corpus(3, {"sine": 10}, length=200)
        steps = generate_synthetic_corpus(3, {"step": 10}, length=200)
        mean_abrupt = lambda bundle: np.mean([abruptness(s) for s in bundle.signals])
        assert mean_abrupt(sines) < mean_abrupt(steps)

    def test_step_jumps_clear_default_threshold(self):
        bundle = generate_synthetic_corpus(4, {"step": 20}, length=300)
        for s in bundle.signals:
            jumps = np.abs(np.diff(s.values))
            jumps = jumps[jumps > 1e-12]
            assert jumps.size > 0
            assert np.all(jumps >= 0.1)  # 2x the default threshold 0.05

    def test_signals_normalized(self):
        bundle = generate_synthetic_corpus(5, {"triangle": 5, "sine": 5}, length=120)
        for s in bundle.signals:
            assert s.values.min() == 0.0 and s.values.max() == 1.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_synthetic_corpus(0, {"step": 0})
        with pytest.raises(InvalidInputError):
            generate_synthetic_corpus(0, {"mystery": 3})
        with pytest.raises(InvalidInputError):
            generate_synthetic_corpus(0, {"step": 3}, length=8)
        with pytest.raises(InvalidInputError):
            generate_synthetic_corpus(0, {})


class TestRunExperiment:
    def test_constant_signal_all_methods_tie(self, ts):
        bundle = DatasetBundle("flat", (ts([3.0] * 40),))
        report = run_experiment(bundle, ExperimentConfig())
        assert all(s.mean_rmse == 0.0 for s in report.summary)

    def test_event_aware_beats_baselines_on_steps_and_ramps(self):
        bundle = merge_bundles(
            "mix",
            [
                generate_synthetic_corpus(6, {"step": 10}, length=300, name="s"),
                generate_synthetic_corpus(7, {"ramp": 10}, length=300, name="r"),
            ],
        )
        report = run_experiment(bundle, ExperimentConfig())
        by_name = {s.method_name: s.mean_rmse for s in report.summary}
        assert by_name["ZeLi"] < by_name["Linear"]
        assert by_name["ZeLi"] < by_name["Zero"]

    def test_pipeline_matches_independent_oracles_on_one_signal(self):
        # end-to-end re-derivation: sample by naive trace, reconstruct by
        # definition, score by the plain formula
        bundle = generate_synthetic_corpus(8, {"walk": 1}, length=150, name="w")
        config = ExperimentConfig(methods=("zoh", "linear"))
        report = run_experiment(bundle, config)
        sig = bundle.signals[0].values  # already normalized
        trace = trace_send_on_delta(sig.tolist(), 0.05)
        s = lebesgue_sample(TimeSeries(sig), 0.05)
        assert list(zip(s.indices.tolist(), s.values.tolist())) == trace
        want_zoh = rmse_plain(sig.tolist(), interp_zoh(s).tolist())
        want_lin = rmse_plain(sig.tolist(), interp_linear(s).tolist())
        by_name = {sc.method_name: sc.mean_rmse for sc in report.summary}
        assert by_name["Zero"] == pytest.approx(want_zoh, abs=1e-12)
        assert by_name["Linear"] == pytest.approx(want_lin, abs=1e-12)

    def test_knots_checked_on_every_signal(self, monkeypatch):
        label, plan, chord = METHODS["linear"]
        blocks = []

        def off_knot_on_second_signal(x, y, first, j):
            out = chord(x, y, first, j)
            blocks.append(int(first.sum()))
            out[x[np.flatnonzero(first)[1]]] += 1.0  # signal 1's first kept point
            return out

        monkeypatch.setitem(METHODS, "linear", (label, plan, off_knot_on_second_signal))
        bundle = generate_synthetic_corpus(10, {"sine": 3}, length=120, name="s")
        with pytest.raises(AssertionError, match="'linear'.*signal 1"):
            run_experiment(bundle, ExperimentConfig(methods=("linear",)))
        assert blocks == [3]  # all three signals in one block

    def test_budget_mode_prefixes_and_compliance(self):
        bundle = generate_synthetic_corpus(9, {"walk": 6}, length=250, name="w")
        config = ExperimentConfig(mode=ExperimentMode.BUDGET, target_fraction=0.2)
        report = run_experiment(bundle, config)
        names = set(report.method_names)
        assert {"L ZeLi", "R ZeLi", "L Zero", "R Zero"} <= names
        d = report.datasets[0]
        assert d.achieved_fraction <= 0.2
        assert d.threshold > 0.0

    def test_budget_infeasible_propagates(self, ts):
        bundle = DatasetBundle("short", (ts([0.0, 1.0, 0.0, 1.0]),))
        config = ExperimentConfig(mode=ExperimentMode.BUDGET, target_fraction=0.01)
        with pytest.raises(InfeasibleBudgetError):
            run_experiment(bundle, config)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(methods=("zoh", "magic"))

    def test_deterministic_given_config(self):
        bundle = generate_synthetic_corpus(10, {"sine": 4}, length=200, name="s")
        r1 = run_experiment(bundle, ExperimentConfig())
        r2 = run_experiment(bundle, ExperimentConfig())
        for a, b in zip(r1.summary, r2.summary):
            assert a == b


def _shaped(rng, shape, n):
    """A walk, a constant (one knot when the threshold is positive) or a
    single step (two knots), normalized as the bench does."""
    if shape == "flat":
        v = np.full(n, 3.0)
    elif shape == "step":
        v = (np.arange(n) >= n // 2).astype(np.float64)
    else:
        v = np.cumsum(rng.normal(0.0, rng.uniform(0.005, 0.1), size=n))
    return normalize_unit_interval(TimeSeries(v))


class TestBlockedScoring:
    @given(
        seed=st.integers(0, 2**32 - 1),
        specs=st.lists(
            st.tuples(st.sampled_from(["walk", "flat", "step"]), st.integers(1, 400)),
            min_size=1,
            max_size=8,
        ),
        threshold=st.sampled_from([0.0, 0.02, 0.05, 0.2]),
        ratio=st.sampled_from([1.0, 1.15, 3.0, math.inf]),
        previous=st.integers(0, 5),
        subsequent_min=st.integers(0, 5),
        subsequent_max=st.one_of(st.none(), st.integers(1, 40)),
        riemann=st.booleans(),
        block=st.sampled_from([64, 700, bench.BLOCK_POINTS]),
    )
    # length-1, one-knot and two-knot signals, and one longer than its block
    @example(seed=0, specs=[("walk", 1), ("flat", 30), ("step", 40), ("walk", 300), ("walk", 1)],
             threshold=0.05, ratio=1.15, previous=3, subsequent_min=3, subsequent_max=None,
             riemann=False, block=64)
    @example(seed=1, specs=[("walk", 200), ("step", 9), ("walk", 150)], threshold=0.0,
             ratio=1.0, previous=0, subsequent_min=0, subsequent_max=None, riemann=False,
             block=700)
    @example(seed=2, specs=[("walk", 250)] * 3, threshold=0.02, ratio=math.inf, previous=1,
             subsequent_min=1, subsequent_max=None, riemann=False, block=700)
    @example(seed=3, specs=[("walk", 250)] * 3, threshold=0.02, ratio=1.0, previous=1,
             subsequent_min=1, subsequent_max=8, riemann=False, block=700)
    @example(seed=4, specs=[("walk", 1), ("walk", 5), ("walk", 300), ("flat", 20)],
             threshold=0.05, ratio=1.15, previous=3, subsequent_min=3, subsequent_max=None,
             riemann=True, block=64)
    @settings(max_examples=150, deadline=None)
    def test_equals_per_signal_reconstructors(
        self, seed, specs, threshold, ratio, previous, subsequent_min, subsequent_max,
        riemann, block,
    ):
        rng = np.random.default_rng(seed)
        signals = [_shaped(rng, shape, n) for shape, n in specs]
        sampled = [
            riemann_sample(ts, SampleBudget(0.15)) if riemann else lebesgue_sample(ts, threshold)
            for ts in signals
        ]
        params = ReconstructionParams(threshold, ratio, previous, subsequent_min, subsequent_max)
        with mock.patch.object(bench, "BLOCK_POINTS", block):
            scores = bench._score_sampled(signals, sampled, params, tuple(METHODS), "")
        for m, score in zip(METHODS, scores):
            want = [rmse(ts.values, PER_SIGNAL[m](s, params)) for ts, s in zip(signals, sampled)]
            # bit for bit, sign bits included
            assert np.array(score.per_signal_rmse).tobytes() == np.array(want).tobytes(), m

    def test_memory_does_not_grow_with_signal_count(self):
        def peak(count):
            bundle = generate_synthetic_corpus(5, {"walk": count}, length=200)
            sampled = [lebesgue_sample(ts, 0.05) for ts in bundle.signals]
            params = ReconstructionParams(0.05)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                bench._score_sampled(bundle.signals, sampled, params, tuple(METHODS), "")
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak(50)  # warm-up: first-call allocations are not the scorer's
        assert peak(400) <= 1.5 * peak(50)


class TestEmitReport:
    def _report(self):
        bundle = generate_synthetic_corpus(12, {"sine": 3}, length=120, name="tiny")
        return run_experiment(bundle, ExperimentConfig(methods=("zoh", "linear")))

    def test_files_and_shapes(self, tmp_path):
        report = self._report()
        files = emit_report(report, tmp_path)
        names = {p.name for p in files}
        assert names == {"tiny_rmse.csv", "summary.csv", "boxplot_long.csv", "report.json"}
        rows = (tmp_path / "tiny_rmse.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + one dataset row
        assert rows[0].count(",") == 2  # dataset + two method columns

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        emit_report(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"]["threshold"] == 0.05
        assert payload["datasets"][0]["abruptness"] == report.datasets[0].abruptness > 0.0
        by_name = {s["method"]: s for s in payload["summary"]}
        for s in report.summary:
            assert by_name[s.method_name]["mean_rmse"] == s.mean_rmse
            assert by_name[s.method_name]["wins"] == s.wins
        ds = payload["datasets"][0]
        assert ds["dataset"] == "tiny"
        assert {sc["method"] for sc in ds["scores"]} == set(report.method_names)

    def test_names_sharing_a_file_rejected(self, tmp_path):
        bundles = [
            generate_synthetic_corpus(12, {"sine": 2}, length=120, name=name)
            for name in ("a b", "a_b")
        ]
        report = run_benchmark(bundles, ExperimentConfig(methods=("zoh",)))
        with pytest.raises(InvalidInputError, match="'a b' and 'a_b'"):
            emit_report(report, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_empty_methods_rejected(self, tmp_path):
        report = MethodReport(datasets=(), summary=())
        with pytest.raises(InvalidInputError):
            emit_report(report, tmp_path)

    def test_seventeen_digit_serialization(self, tmp_path):
        report = self._report()
        emit_report(report, tmp_path)
        value = report.summary[0].mean_rmse
        text = (tmp_path / "summary.csv").read_text()
        assert format(value, ".17g") in text
        assert float(format(value, ".17g")) == value  # lossless round trip
        json_text = (tmp_path / "report.json").read_text()
        assert format(0.05, ".17g") in json_text  # threshold echoed at 17 digits


class TestRunBenchmark:
    def test_multi_dataset_aggregation(self):
        bundles = [
            generate_synthetic_corpus(13, {"step": 4}, length=150, name="a"),
            generate_synthetic_corpus(14, {"sine": 4}, length=150, name="b"),
        ]
        report = run_benchmark(bundles, ExperimentConfig(methods=("zoh", "linear", "zeli")))
        assert [d.dataset for d in report.datasets] == ["a", "b"]
        total_wins = sum(s.wins for s in report.summary)
        assert total_wins == 2  # one winner per dataset
