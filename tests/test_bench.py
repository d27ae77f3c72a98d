import contextlib
import dataclasses
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
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
    normalize_unit_interval,
    riemann_sample,
    rmse,
    run_benchmark,
    run_experiment,
)
from lebesgue_interp import bench, core, metrics, sampling
from lebesgue_interp.cli import main
from conftest import PER_SIGNAL
from oracles import (
    bisect_candidate_grid,
    normalize_scalar,
    periodic_positions,
    points,
    rmse_plain,
    score_scalar,
    trace_send_on_delta,
    ucr_rows_csv,
)

_DIGITS = "0123456789"
# numeric text as float() reads it: ASCII, underscored or in other scripts'
# digits, padded with whitespace; NaN and infinity spellings; and junk
_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: format(v, ".9e")),
    st.integers(-(10**30), 10**30).map(str),
    st.integers(0, 10**9).map(lambda n: f"{n:_}"),
    st.tuples(st.integers(0, 10**6), st.sampled_from(["\u0660", "\u0966", "\uff10", "\U0001d7ce"]))
    .map(lambda t: str(t[0]).translate({ord(d): ord(t[1]) + i for i, d in enumerate(_DIGITS)})),
)
_fields = st.one_of(
    st.tuples(st.sampled_from(["", " ", "\t", "\u2003", "\xa0"]), _number,
              st.sampled_from(["", " ", "\n", "\x0c"])).map("".join),
    st.sampled_from(["nan", "NaN", "-nan", "+NAN", "inf", "-Inf", "Infinity", "-infinity",
                     "1e400", "-1e999", "1e-400", "2.5e-324"]),
    st.text(alphabet="0123456789.eE+-_ nainfxX\u0661", max_size=6),
)


@pytest.fixture
def tsv_pair(tmp_path):
    train = tmp_path / "Toy_TRAIN.tsv"
    test = tmp_path / "Toy_TEST.tsv"
    train.write_text("1\t0.0\t0.1\t0.2\t0.3\n2\t1.0\t0.9\t0.8\t0.7\n")
    test.write_text("1\t0.5\t0.5\t0.5\t0.5\n")
    return train, test


def _finite_float(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class TestLoadUcrDataset:
    def test_tsv_pair_concatenated(self, tsv_pair):
        train, test = tsv_pair
        bundle = load_ucr_dataset(train, test)
        assert bundle.name == "Toy"
        assert len(bundle) == 3
        assert all(len(s) == 4 for s in bundle.signals)
        np.testing.assert_array_equal(bundle.signals[0].values, [0.0, 0.1, 0.2, 0.3])
        np.testing.assert_array_equal(bundle.signals[2].values, [0.5, 0.5, 0.5, 0.5])

    def test_missing_file_names_path(self, tsv_pair, tmp_path):
        # open() names the path; a missing test file fails as a missing train file does
        missing = tmp_path / "nope_TRAIN.tsv"
        with pytest.raises(FileNotFoundError) as err:
            load_ucr_dataset(missing)
        assert str(err.value) == f"[Errno 2] No such file or directory: '{missing}'"
        with pytest.raises(FileNotFoundError, match="nope_TEST.tsv"):
            load_ucr_dataset(tsv_pair[0], tmp_path / "nope_TEST.tsv")

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
        assert fixed.achieved_fraction == 1.0
        budget = run_experiment(
            bundle, ExperimentConfig(mode=ExperimentMode.BUDGET, target_fraction=0.5)
        )
        assert budget.achieved_fraction == (1 / 3 + 1 / 2) / 2

    def test_trailing_nan_padding_trimmed(self, tmp_path):
        padded = tmp_path / "Padded_TRAIN.tsv"
        padded.write_text("1\t0.1\t0.2\tNaN\tNaN\n")
        np.testing.assert_array_equal(load_ucr_dataset(padded).signals[0].values, [0.1, 0.2])

    def test_file_of_blank_lines_rejected(self, tmp_path):
        blank = tmp_path / "Blank_TRAIN.tsv"
        blank.write_text("\n   \n\n")
        with pytest.raises(InvalidInputError) as err:
            load_ucr_dataset(blank)
        assert str(err.value) == f"no data rows in {blank}"

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

    def test_quoted_field_is_not_unquoted(self, tmp_path):
        quoted = tmp_path / "Quoted_TRAIN.tsv"
        quoted.write_text('1\t0.1\t"0.5"\n')
        with pytest.raises(ParseError, match="cannot parse '\"0.5\"' at row 0, column 1"):
            load_ucr_dataset(quoted)

    @pytest.mark.parametrize(
        "text",
        [
            "1\t0.1\t0.2\r\n2\t0.3\t0.4\r\n",
            "1\t0.1\t0.2\r2\t0.3\t0.4\r",
            "1\t0.1\t0.2\n\n  \n2\t0.3\t0.4",
            "1\t0.1\t0.2\tNaN\tnan\r\n\r\n2\t 0.3\t0.4 \t0.5\tNAN \r\n3\t7\r\n",
        ],
        ids=["crlf", "cr", "blank-lines", "nan-padded-crlf"],
    )
    def test_rows_split_as_csv_reader_split_them(self, tmp_path, text):
        path = tmp_path / "Rows_TRAIN.tsv"
        path.write_bytes(text.encode())
        got = bench._parse_rows(path)
        want = ucr_rows_csv(path)
        assert [r.tobytes() for r in got] == [r.tobytes() for r in want]

    @given(st.lists(_fields, max_size=8), st.integers(0, 1))
    @example(["1_000", "\u0661\u0662", " 2.5\u2003"], 0)
    @example(["4.9e-324", "1e400"], 1)
    @settings(max_examples=400)
    def test_parse_finite_fields_parses_as_float(self, fields, first_column):
        path = "F.tsv"
        want = None
        for c, f in enumerate(fields, first_column):
            try:
                x = float(f)
            except ValueError:
                want = (c, f"{path}: cannot parse {f!r} at row 3, column {c}")
                break
            if not math.isfinite(x):
                want = (c, f"{path}: non-finite value {f!r} at row 3, column {c}")
                break
        if want is None:
            got = bench.parse_finite_fields(fields, path, [(3, len(fields))], first_column)
            assert got.tobytes() == np.array([float(f) for f in fields]).tobytes()
        else:
            with pytest.raises(ParseError) as err:
                bench.parse_finite_fields(fields, path, [(3, len(fields))], first_column)
            assert (err.value.row, err.value.column, str(err.value)) == (3, *want)

    @pytest.mark.parametrize("bulk", ["numpy", "refused"])
    def test_parse_finite_fields_when_the_bulk_conversion_refuses(self, monkeypatch, bulk):
        # where numpy's bulk conversion refuses a field that float() reads, as some numpy
        # releases do, each field is read on its own
        fields = ["1_000", " 2.5 ", "\u0661\u0662", "-4.5e-3", "+.5"]
        if bulk == "refused":
            array = np.array

            def refuse_text(obj, *args, **kwargs):
                if any(isinstance(f, str) for f in obj):
                    raise ValueError("could not convert string to float")
                return array(obj, *args, **kwargs)

            monkeypatch.setattr(np, "array", refuse_text)
        got = bench.parse_finite_fields(fields, "F.tsv", [(0, len(fields))])
        assert got.tobytes() == np.array([float(f) for f in fields]).tobytes()

    @given(st.lists(st.lists(_fields, max_size=4), max_size=5), st.integers(0, 1))
    @settings(max_examples=200)
    def test_parse_finite_fields_names_the_line_of_a_bad_field(self, rows, first_column):
        # row r holds rows[r]; the column counts within the row
        path = "F.txt"
        fields = [f for row in rows for f in row]
        lines = list(zip(range(len(rows)), np.cumsum([len(row) for row in rows]).tolist()))
        bad = [(r, c) for r, row in enumerate(rows) for c, f in enumerate(row, first_column)
               if not _finite_float(f)]
        if not bad:
            got = bench.parse_finite_fields(fields, path, lines, first_column)
            assert got.tobytes() == np.array([float(f) for f in fields]).tobytes()
        else:
            with pytest.raises(ParseError) as err:
                bench.parse_finite_fields(fields, path, lines, first_column)
            assert (err.value.row, err.value.column) == bad[0]


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


def test_bundle_offsets_are_read_only(ts, tsv_pair):
    # a written offset would re-cut the dataset into other signals
    bundles = [
        DatasetBundle("d", (ts([0.0, 1.0]), ts([2.0]))),
        load_ucr_dataset(*tsv_pair),
        generate_synthetic_corpus(1, {"walk": 3}, 50),
    ]
    for bundle in bundles:
        with pytest.raises(ValueError):
            bundle.offsets[1] = 7


# lattice values, many of them repeated, in ragged lengths: one point, a constant, or any
_lattice_signal = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=24),
    st.tuples(st.integers(-4, 4), st.integers(1, 24)).map(lambda t: [t[0]] * t[1]),
)


class TestRunExperiment:
    def test_constant_signal_all_methods_tie(self, ts):
        bundle = DatasetBundle("flat", (ts([3.0] * 40),))
        result = run_experiment(bundle, ExperimentConfig())
        assert all(s.mean_rmse == 0.0 for s in result.scores)

    def test_event_aware_beats_baselines_on_steps_and_ramps(self):
        bundles = [
            generate_synthetic_corpus(6, {"step": 10}, length=300, name="s"),
            generate_synthetic_corpus(7, {"ramp": 10}, length=300, name="r"),
        ]
        bundle = DatasetBundle("mix", [s for b in bundles for s in b.signals])
        result = run_experiment(bundle, ExperimentConfig())
        by_name = {s.method_name: s.mean_rmse for s in result.scores}
        assert by_name["ZeLi"] < by_name["Linear"]
        assert by_name["ZeLi"] < by_name["Zero"]

    def test_pipeline_matches_independent_oracles_on_one_signal(self):
        # end-to-end re-derivation: sample by naive trace, reconstruct by
        # definition, score by the plain formula
        bundle = generate_synthetic_corpus(8, {"walk": 1}, length=150, name="w")
        config = ExperimentConfig(methods=("zoh", "linear"))
        result = run_experiment(bundle, config)
        sig = bundle.signals[0].values  # already normalized
        trace = trace_send_on_delta(sig.tolist(), 0.05)
        s = lebesgue_sample(TimeSeries(sig), 0.05)
        assert list(zip(s.indices.tolist(), s.values.tolist())) == trace
        want_zoh = rmse_plain(sig.tolist(), interp_zoh(s).tolist())
        want_lin = rmse_plain(sig.tolist(), interp_linear(s).tolist())
        by_name = {sc.method_name: sc.mean_rmse for sc in result.scores}
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

    @pytest.mark.parametrize("mode", list(ExperimentMode))
    def test_band_checked_on_every_signal(self, monkeypatch, mode):
        send_on_delta = bench._send_on_delta

        def drops_a_kept_point(values, offsets, threshold):
            kept = send_on_delta(values, offsets, threshold)
            return np.delete(kept, np.searchsorted(kept, offsets[1]) + 1)  # signal 1's second

        monkeypatch.setattr(bench, "_send_on_delta", drops_a_kept_point)
        bundle = generate_synthetic_corpus(10, {"sine": 3}, length=120, name="s")
        with pytest.raises(AssertionError, match="signal 1 has a skipped point outside the band"):
            run_experiment(bundle, ExperimentConfig(mode=mode, methods=("linear",)))

    def test_budget_mode_prefixes_and_compliance(self):
        bundle = generate_synthetic_corpus(9, {"walk": 6}, length=250, name="w")
        config = ExperimentConfig(mode=ExperimentMode.BUDGET, target_fraction=0.2)
        d = run_experiment(bundle, config)
        names = {s.method_name for s in d.scores}
        assert {"L ZeLi", "R ZeLi", "L Zero", "R Zero"} <= names
        assert d.achieved_fraction <= 0.2
        assert d.threshold > 0.0

    def test_budget_infeasible_propagates(self, ts):
        bundle = DatasetBundle("short", (ts([0.0, 1.0, 0.0, 1.0]),))
        config = ExperimentConfig(mode=ExperimentMode.BUDGET, target_fraction=0.01)
        with pytest.raises(InfeasibleBudgetError):
            run_experiment(bundle, config)

    @given(
        signals=st.lists(_lattice_signal, min_size=1, max_size=5),
        step=st.sampled_from([0.1, 0.25, 3.0]),
        target=st.floats(0.05, 1.0),
        size=st.sampled_from([1, 5, 40]),
    )
    # a lattice with a constant and a one-point signal, feasible at this budget: its grid
    # pass at one pair per bucket meets 6 one-value buckets and 6 sorted ones
    @example(signals=[[0, 1, 1, 2, 0, 2, 3, 3, -1, 4, 4, 0], [2] * 9, [5], [1, 0, 1, 0, 1, 3]],
             step=0.1, target=0.5, size=1)
    @settings(max_examples=100, deadline=None)
    def test_budget_mode_equals_scalar_oracles(self, signals, step, target, size):
        # the tune reads the grid in buckets of `size` pairs, so lattices with their many
        # equal differences span many buckets, one-value ones among them
        bundle = DatasetBundle("lattice", tuple(TimeSeries([k * step for k in v]) for v in signals))
        normalized = [normalize_scalar(ts.values) for ts in bundle.signals]
        want = bisect_candidate_grid(
            DatasetBundle("n", tuple(TimeSeries(v) for v in normalized)), target)
        config = ExperimentConfig(mode=ExperimentMode.BUDGET, target_fraction=target)
        with mock.patch.object(sampling, "_BUCKET_PAIRS", size):
            if want[0] == "infeasible":
                with pytest.raises(InfeasibleBudgetError) as err:
                    run_experiment(bundle, config)
                assert err.value.min_achievable_fraction == want[1]
                return
            got = run_experiment(bundle, config)
        assert (got.threshold, got.achieved_fraction) == want
        kept = {
            "L ": [trace_send_on_delta(v.tolist(), want[0]) for v in normalized],
            "R ": [[(i, float(v[i])) for i in periodic_positions(v.size, target)]
                   for v in normalized],
        }
        params = ReconstructionParams(want[0])
        assert {s.method_name: s.per_signal_rmse for s in got.scores} == {
            prefix + label: tuple(score_scalar(normalized, kept[prefix], params, m))
            for prefix in kept for m, (label, _, _) in METHODS.items()
        }

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(methods=("zoh", "magic"))

    def test_no_method_rejected(self):
        with pytest.raises(InvalidInputError, match="^at least one method is required$"):
            ExperimentConfig(methods=())

    def test_repeated_method_rejected(self):
        with pytest.raises(InvalidInputError, match=r"named more than once: \['zoh'\]$"):
            ExperimentConfig(methods=("zoh", "linear", "zoh"))

    def test_deterministic_given_config(self):
        bundle = generate_synthetic_corpus(10, {"sine": 4}, length=200, name="s")
        r1 = run_experiment(bundle, ExperimentConfig())
        r2 = run_experiment(bundle, ExperimentConfig())
        assert r1 == r2

    @pytest.mark.parametrize("mode", list(ExperimentMode))
    def test_equals_the_one_dataset_report(self, mode):
        bundle = generate_synthetic_corpus(11, {"walk": 4}, length=200, name="w")
        config = ExperimentConfig(mode=mode)
        assert run_experiment(bundle, config) == run_benchmark([bundle], config).datasets[0]


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


def _flat(signals, sampled):
    """The scorer's inputs: the signals end to end, their offsets, and every
    sampled index as a position in that array."""
    offsets = np.cumsum([0] + [len(ts) for ts in signals])
    kept = np.concatenate([s.indices + a for s, a in zip(sampled, offsets.tolist())])
    return np.concatenate([ts.values for ts in signals]), offsets, kept


def _ragged_ucr_dir(root):
    """Two UCR datasets with CRLF line ends: Alpha's rows differ in length, every
    row has up to 3 NaN pads, and Beta's test file ends with a constant row and a
    row spanning 1e308 .. -1e308, which take the normalization's zero and halving
    paths."""
    rng = np.random.default_rng(3)
    for name in ("Alpha", "Beta"):
        (root / name).mkdir(parents=True)
        for part in ("TRAIN", "TEST"):
            lines = []
            for r in range(30):
                n = int(rng.integers(33, 201)) if name == "Alpha" else 120
                y = np.cumsum(rng.normal(size=n)) * rng.uniform(0.1, 30.0)
                pad = ["NaN"] * int(rng.integers(0, 4))
                lines.append("\t".join([str(1 + r % 3), *map(repr, y.tolist()), *pad]))
            if name == "Beta" and part == "TEST":
                for y in (np.full(120, 3.25), np.linspace(1.0, -1.0, 120) * 1e308):
                    lines.append("\t".join(["1", *map(repr, y.tolist())]))
            (root / name / f"{name}_{part}.tsv").write_bytes(("\r\n".join(lines) + "\r\n").encode())
    return root


def _extreme_ucr_dir(root):
    """One UCR dataset of raw rows at the float64 limit: alternating and ramping
    between -max and +max, a step across the whole range, a walk scaled to fill
    it, and a constant row."""
    big = np.finfo(np.float64).max
    walk = np.cumsum(np.random.default_rng(7).normal(size=48))
    rows = [
        np.resize([big, -big], 48),
        np.linspace(1.0, -1.0, 48) * big,
        np.where(np.arange(48) < 24, -big, big),
        ((walk - walk.min()) / (walk.max() - walk.min()) * 2.0 - 1.0) * big,
        np.full(48, 3.25),
    ]
    root.mkdir(parents=True)
    lines = ["\t".join(["1", *map(repr, y.tolist())]) for y in rows]
    (root / "Extreme_TRAIN.tsv").write_text("\n".join(lines) + "\n")
    return root


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
        block=st.sampled_from([64, 700, metrics.BLOCK_POINTS]),
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
        with mock.patch.object(metrics, "BLOCK_POINTS", block):
            scores = bench._score_sampled(*_flat(signals, sampled), params, tuple(METHODS), "",
                                          not riemann)
        values, kept = [ts.values for ts in signals], [points(s) for s in sampled]
        for m, score in zip(METHODS, scores):
            want = [rmse(ts.values, PER_SIGNAL[m](s, params)) for ts, s in zip(signals, sampled)]
            # bit for bit, sign bits included
            assert np.array(score.per_signal_rmse).tobytes() == np.array(want).tobytes(), m
            oracle = score_scalar(values, kept, params, m)
            assert np.array(score.per_signal_rmse).tobytes() == np.array(oracle).tobytes(), m

    def test_memory_does_not_grow_with_signal_count(self):
        def peak(count):
            bundle = generate_synthetic_corpus(5, {"walk": count}, length=200)
            flat = _flat(bundle.signals, [lebesgue_sample(ts, 0.05) for ts in bundle.signals])
            params = ReconstructionParams(0.05)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                bench._score_sampled(*flat, params, tuple(METHODS), "", True)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak(50)  # warm-up: first-call allocations are not the scorer's
        assert peak(400) <= 1.5 * peak(50)

    @staticmethod
    def _one_block_peak(threshold):
        """The scorer's peak traced bytes on one full block of walks sampled at ``threshold``."""
        bundle = generate_synthetic_corpus(5, {"walk": metrics.BLOCK_POINTS // 512}, length=512)
        flat = _flat(bundle.signals, [lebesgue_sample(ts, threshold) for ts in bundle.signals])
        params = ReconstructionParams(threshold)
        for _ in range(2):  # the first call's allocations are not the scorer's
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                bench._score_sampled(*flat, params, tuple(METHODS), "", True)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        return peak

    def test_one_block_peak_memory(self):
        # one full block of walks: each plan's knots, grid and tail hold,
        # one kernel output at a time and the kernel's own temporaries
        assert self._one_block_peak(0.05) <= 14 * 8 * metrics.BLOCK_POINTS

    @pytest.mark.parametrize("threshold", [0.0, 0.01])
    def test_one_block_peak_memory_with_dense_knots(self, threshold):
        # as above, but the kept points, the planned knots and the slope temporaries
        # are block-sized too, and still fit the same 14-array budget
        assert self._one_block_peak(threshold) <= 14 * 8 * metrics.BLOCK_POINTS

    @pytest.mark.parametrize("riemann", [False, True])
    def test_method_order_does_not_change_scores(self, riemann):
        # methods run grouped by knot plan, in the order given, each plan over its own grid:
        # no order of the methods may change a score
        rng = np.random.default_rng(8)
        specs = [("walk", 1), ("flat", 30), ("step", 40), ("walk", 300), ("walk", 5)] * 3
        signals = [_shaped(rng, shape, n) for shape, n in specs]
        sampled = [riemann_sample(ts, SampleBudget(0.15)) if riemann
                   else lebesgue_sample(ts, 0.05) for ts in signals]
        params = ReconstructionParams(0.05, 1.15, 1, 1)
        flat = _flat(signals, sampled)
        want = {s.method_name: np.array(s.per_signal_rmse).tobytes()
                for s in bench._score_sampled(*flat, params, tuple(METHODS), "", not riemann)}
        for methods in (tuple(reversed(METHODS)), ("zechipc", "zoh", "zeli", "pchip", "nearest"),
                        ("linear", "zelic", "zoh")):
            got = bench._score_sampled(*flat, params, methods, "", not riemann)
            assert [s.method_name for s in got] == [METHODS[m][0] for m in methods]
            for s in got:
                assert np.array(s.per_signal_rmse).tobytes() == want[s.method_name], methods

    @pytest.mark.parametrize("mode", list(ExperimentMode))
    def test_reports_do_not_depend_on_block_size(self, tmp_path, mode):
        bundles = [generate_synthetic_corpus(5, {"walk": 6, "sine": 6, "triangle": 6}, 400)]
        config = ExperimentConfig(mode=mode)
        files = {}
        for block in (64, metrics.BLOCK_POINTS):
            with mock.patch.object(metrics, "BLOCK_POINTS", block):
                paths = emit_report(run_benchmark(bundles, config), tmp_path / str(block))
            files[block] = {p.name: p.read_bytes() for p in paths}
        assert files[64] == files[metrics.BLOCK_POINTS]
        # the same through the CLI, on synthetic families and on ragged and extreme UCR files
        experiment = "1" if mode is ExperimentMode.FIXED_THRESHOLD else "2"
        extreme = str(_extreme_ucr_dir(tmp_path / "extreme"))
        runs = {
            "synthetic": ["--synthetic", "walk=6,sine=6,triangle=6", "--length", "400",
                          "--seed", "5"],
            "ucr": ["--data-dir", str(_ragged_ucr_dir(tmp_path / "ucr"))],
            # raw values at the float64 limit reach the scorer normalized, so every score
            # is finite and no overflow warning is raised
            **{f"extreme-{t}": ["--data-dir", extreme, "--threshold", t,
                                "--tolerance-ratio", "inf"] for t in ("0", "1", "1e308")},
        }
        for label, argv in runs.items():
            files = {}
            for block in (64, metrics.BLOCK_POINTS):
                out = tmp_path / label / str(block)
                with mock.patch.object(metrics, "BLOCK_POINTS", block), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    assert main(["bench", "--experiment", experiment, *argv, "--out", str(out)]) == 0
                assert not caught, label
                files[block] = {p.name: p.read_bytes() for p in out.iterdir()}
                datasets = json.loads(files[block]["report.json"])["datasets"]
                assert all(math.isfinite(s["mean_rmse"]) for d in datasets for s in d["scores"])
            assert files[64] == files[metrics.BLOCK_POINTS], label
        assert not hasattr(bench, "BLOCK_POINTS")  # the block size lives in metrics only
        assert sampling._runs is metrics._runs is bench._runs is core._runs  # one run rule


class TestEmitReport:
    def _report(self):
        bundle = generate_synthetic_corpus(12, {"sine": 3}, length=120, name="tiny")
        return run_benchmark([bundle], ExperimentConfig(methods=("zoh", "linear")))

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

    @pytest.mark.parametrize("where", ["config", "dataset"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected_before_any_file(self, tmp_path, where, bad):
        report = self._report()
        if where == "config":
            report = dataclasses.replace(report, config={"threshold": bad})
        else:
            d = dataclasses.replace(report.datasets[0], abruptness=bad)
            report = dataclasses.replace(report, datasets=(d,))
        with pytest.raises(InvalidInputError, match=f"cannot serialize non-finite number {bad}"):
            emit_report(report, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_numpy_scalars_encode_as_python_values(self, tmp_path):
        config = {"count": np.int64(3), "ratio": np.float32(0.1), "flag": np.bool_(True)}
        emit_report(dataclasses.replace(self._report(), config=config), tmp_path)
        text = (tmp_path / "report.json").read_text()
        ratio = float(np.float32(0.1))
        assert f'"count": 3,\n    "ratio": {ratio:.17g},\n    "flag": true\n' in text
        assert json.loads(text)["config"] == {"count": 3, "ratio": ratio, "flag": True}

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

    def test_aggregates_once(self):
        bundles = [generate_synthetic_corpus(15 + i, {"sine": 2}, length=120, name=f"d{i}")
                   for i in range(3)]
        with mock.patch.object(bench, "aggregate_report", wraps=bench.aggregate_report) as agg:
            report = run_benchmark(bundles, ExperimentConfig(methods=("zoh", "linear")))
        assert agg.call_count == 1
        assert [d.dataset for d in report.datasets] == ["d0", "d1", "d2"]


class TestRunUcrArchive:
    @pytest.mark.parametrize("mode", list(ExperimentMode))
    def test_writes_what_bench_data_dir_writes(self, tmp_path, mode):
        data = _ragged_ucr_dir(tmp_path / "ucr")
        experiment = "1" if mode is ExperimentMode.FIXED_THRESHOLD else "2"
        argv = ["bench", "--experiment", experiment, "--data-dir", str(data)]
        assert main([*argv, "--out", str(tmp_path / "cli")]) == 0
        paths = emit_report(bench.run_ucr_archive(data, ExperimentConfig(mode=mode)),
                            tmp_path / "lib")
        want = {p.name: p.read_bytes() for p in (tmp_path / "cli").iterdir()}
        assert {p.name: p.read_bytes() for p in paths} == want

    def test_file_name_collision_raises_before_any_dataset_loads(self, tmp_path, monkeypatch):
        for name in ("a.b", "a_b"):
            (tmp_path / f"{name}_TRAIN.tsv").write_text("1\t0.1\t0.4\t0.2\t0.9\n")
        monkeypatch.setattr(os, "sched_getaffinity", _cpus(1))  # every load would run here
        load = mock.Mock(wraps=load_ucr_dataset)
        monkeypatch.setattr(bench, "load_ucr_dataset", load)
        with pytest.raises(InvalidInputError) as err:
            bench.run_ucr_archive(tmp_path, ExperimentConfig())
        assert str(err.value) == "datasets 'a.b' and 'a_b' would both write a_b_rmse.csv"
        assert load.call_count == 0


def _cpus(n):
    """A stand-in for os.sched_getaffinity that reports n usable CPUs."""
    return lambda pid: set(range(n))


@contextlib.contextmanager
def _every_worker_reaped():
    threads = threading.active_count()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


def _forked_run(bundles, config, cpus, monkeypatch):
    """The report run_benchmark builds at ``cpus`` usable CPUs, and the forks it made."""
    monkeypatch.setattr(os, "sched_getaffinity", _cpus(cpus))
    with _every_worker_reaped(), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        report = run_benchmark(bundles, config)
    return report, fork.call_count


def _corpus():
    """Five datasets of mixed signal counts and lengths."""
    specs = [("step", 4, 150), ("sine", 6, 120), ("walk", 3, 200), ("triangle", 5, 180),
             ("ramp", 2, 100)]
    return [generate_synthetic_corpus(20 + i, {fam: n}, length=length, name=fam)
            for i, (fam, n, length) in enumerate(specs)]


def _failing_ucr_dir(root):
    """Four datasets in discovery order: A scores, B's budget is infeasible at 0.1, C does
    not parse at its last row, D scores. C is the heaviest, so this process runs it."""
    root.mkdir()
    line = "1\t" + "\t".join(map(repr, np.linspace(0.0, 1.0, 80).tolist()))
    (root / "A_TRAIN.tsv").write_text("\n".join([line] * 5) + "\n")
    (root / "B_TRAIN.tsv").write_text("1\t0.0\t1.0\t0.0\t1.0\n")
    (root / "C_TRAIN.tsv").write_text("\n".join([line] * 8 + ["1\t0.5\tabc\t0.2"]) + "\n")
    (root / "D_TRAIN.tsv").write_text("\n".join([line] * 4) + "\n")
    return root


class TestForkedRuns:
    @pytest.mark.parametrize("mode", list(ExperimentMode))
    def test_reports_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, mode):
        bundles, config = _corpus(), ExperimentConfig(mode=mode)
        files = {}
        for cpus, forks in ((1, 0), (2, 1), (8, 4)):
            report, made = _forked_run(bundles, config, cpus, monkeypatch)
            assert made == forks
            paths = emit_report(report, tmp_path / str(cpus))
            files[cpus] = {p.name: p.read_bytes() for p in paths}
        assert files[2] == files[1] and files[8] == files[1]

    def test_cli_output_does_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, capsys):
        data = str(_ragged_ucr_dir(tmp_path / "ucr"))
        monkeypatch.chdir(tmp_path)  # stdout names the --out files
        seen = {}
        for cpus in (1, 2, 8):
            monkeypatch.setattr(os, "sched_getaffinity", _cpus(cpus))
            with _every_worker_reaped():
                code = main(["bench", "--experiment", "2", "--data-dir", data, "--out", "out"])
            files = {p.name: p.read_bytes() for p in Path("out").iterdir()}
            seen[cpus] = code, capsys.readouterr(), files
        assert seen[1][0] == 0
        assert seen[2] == seen[1] and seen[8] == seen[1]

    @pytest.mark.parametrize("case", ["one-cpu", "one-dataset", "no-affinity", "live-thread"])
    def test_no_fork_where_it_cannot_pay_or_is_unsafe(self, monkeypatch, case):
        bundles = _corpus()[:1] if case == "one-dataset" else _corpus()
        config = ExperimentConfig(methods=("zoh", "pchip"))
        want = run_benchmark(bundles, config)
        monkeypatch.setattr(os, "sched_getaffinity", _cpus(1 if case == "one-cpu" else 2))
        if case == "no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if case == "live-thread":
            thread.start()
        try:
            with _every_worker_reaped(), mock.patch.object(os, "fork", wraps=os.fork) as fork:
                got = run_benchmark(bundles, config)
        finally:
            stop.set()
            if case == "live-thread":
                thread.join()
        assert fork.call_count == 0
        assert got == want

    def test_first_failing_dataset_in_order_is_named(self, tmp_path, monkeypatch, capsys):
        # B fails in a worker's scoring and C, later in order, in this process's parse: every
        # CPU count names B, as the in-order run does
        data = str(_failing_ucr_dir(tmp_path / "data"))
        for cpus in (1, 2, 8):
            monkeypatch.setattr(os, "sched_getaffinity", _cpus(cpus))
            with _every_worker_reaped():
                code = main(["bench", "--experiment", "2", "--budget", "0.1", "--data-dir", data,
                             "--out", str(tmp_path / "out")])
            assert (code, capsys.readouterr().err) == (1, (
                "error: dataset 'B': budget 0.1 infeasible: minimum achievable fraction is 0.25\n"
            )), cpus
            assert not (tmp_path / "out").exists()

    def test_datasets_of_a_worker_that_dies_run_here(self, monkeypatch):
        bundles, config = _corpus(), ExperimentConfig(methods=("zoh", "zeli"))
        want = run_benchmark(bundles, config)
        here, run = os.getpid(), bench.run_experiment

        def dies_in_a_worker(bundle, config):
            if os.getpid() != here:
                os.kill(os.getpid(), signal.SIGKILL)  # as the kernel's OOM killer would
            return run(bundle, config)

        monkeypatch.setattr(bench, "run_experiment", dies_in_a_worker)
        got, forks = _forked_run(bundles, config, 4, monkeypatch)
        assert forks == 3
        assert got == want

    def test_an_error_here_kills_and_reaps_the_workers(self, monkeypatch):
        here = os.getpid()

        def interrupted_here(bundle, config):
            # a worker outlasts the test unless killed, but neither this process nor a minute
            deadline = time.monotonic() + 60
            while os.getpid() != here and os.getppid() == here and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(bench, "run_experiment", interrupted_here)
        monkeypatch.setattr(os, "sched_getaffinity", _cpus(3))
        start = time.monotonic()
        with _every_worker_reaped(), pytest.raises(KeyboardInterrupt):
            run_benchmark(_corpus(), ExperimentConfig())
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("case, want", [("one-dataset", 1), ("two-datasets", 1),
                                            ("one-cpu", 0), ("live-thread", 0), ("one-bucket", 0)])
    def test_forks_of_a_budget_run(self, tmp_path, monkeypatch, case, want):
        # one dataset forks in its tune's grid pass, two fork for the datasets alone, and no
        # process of a forked run forks again; the wrapper that counts the forks of every
        # process appends to a file, and the workers inherit it
        bundles = [generate_synthetic_corpus(5 + i, {"walk": 2}, length=60, name=f"w{i}")
                   for i in range(2 if case == "two-datasets" else 1)]
        config = ExperimentConfig(mode=ExperimentMode.BUDGET, target_fraction=0.3,
                                  methods=("zoh", "linear"))
        monkeypatch.setattr(os, "sched_getaffinity", _cpus(1))
        want_report = run_benchmark(bundles, config)
        log, fork = tmp_path / "forks", os.fork
        log.touch()

        def logged_fork():
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        monkeypatch.setattr(os, "sched_getaffinity", _cpus(1 if case == "one-cpu" else 2))
        if case != "one-bucket":  # 3,540 pairs a dataset: one bucket at the real size
            monkeypatch.setattr(sampling, "_BUCKET_PAIRS", 40)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if case == "live-thread":
            thread.start()
        try:
            with _every_worker_reaped():
                got = run_benchmark(bundles, config)
        finally:
            stop.set()
            if case == "live-thread":
                thread.join()
        assert len(log.read_text().split()) == want
        assert got == want_report

    def test_only_the_fork_warning_is_ignored(self, monkeypatch):
        # CPython 3.12+ warns in the parent at every fork of a process with a second OS thread
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                              "may lead to deadlocks in the child.", DeprecationWarning)
                warnings.warn("some other deprecation", DeprecationWarning)
            return pid

        bundles, config = _corpus(), ExperimentConfig(methods=("zoh", "linear"))
        want = run_benchmark(bundles, config)
        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, _ = _forked_run(bundles, config, 2, monkeypatch)
        assert [str(w.message) for w in caught] == ["some other deprecation"]
        assert got == want


def _lockstep_ucr_dir(root, seed):
    """Four UCR datasets built to reach both send-on-delta paths: consecutive groups of 31, 32
    and 33 equal-length rows (the lockstep takes runs of 32 or more); ragged, NaN-padded rows
    among groups of 1- and 2-point rows; rows on a 1/64 lattice, whose differences tie a 1/16
    threshold exactly; and a run holding a row that alternates between -1e308 and 1e308."""
    rng = np.random.default_rng(seed)

    def walk(n):
        return np.cumsum(rng.normal(size=n)) * rng.uniform(0.1, 30.0)

    def lattice(n):
        k = rng.integers(0, 65, size=n)
        k[:2] = 0, 64  # the row spans [0, 1], so normalizing leaves it on the lattice
        return k / 64

    datasets = {
        "Groups": [walk(n) for n, count in ((17, 31), (60, 32), (3, 33)) for _ in range(count)],
        "Ragged": [*(walk(int(rng.integers(1, 200))) for _ in range(60)),
                   *(walk(2) for _ in range(33)), *(walk(1) for _ in range(32)), walk(1), walk(2)],
        "Lattice": [lattice(40) for _ in range(34)] + [lattice(9) for _ in range(5)],
        "Huge": [np.resize([-1e308, 1e308], 48)] + [walk(48) for _ in range(32)],
    }
    for name, rows in datasets.items():
        (root / name).mkdir(parents=True)
        width = max(map(len, rows))
        lines = ["\t".join(["1", *map(repr, y.tolist()), *["NaN"] * (width - len(y))]) for y in rows]
        (root / name / f"{name}_TRAIN.tsv").write_text("\n".join(lines) + "\n")
    return root


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("argv", [["--experiment", "1", "--threshold", "0.0625"],
                                  ["--experiment", "2", "--budget", "0.5"]], ids=["fixed", "budget"])
def test_lockstep_and_loop_give_the_same_reports(tmp_path, monkeypatch, capsys, seed, argv):
    # one CPU, so that every sampled run, and every tuning probe, is counted here
    monkeypatch.setattr(os, "sched_getaffinity", _cpus(1))
    _lockstep_ucr_dir(tmp_path / "data", seed)
    seen = []
    for path, lockstep in (("lockstep", sampling._LOCKSTEP), ("loop", 10**9)):
        (tmp_path / path).mkdir()
        monkeypatch.chdir(tmp_path / path)  # stdout names the --out files
        monkeypatch.setattr(sampling, "_LOCKSTEP", lockstep)
        with mock.patch.object(sampling, "_fires", wraps=sampling._fires) as fires:
            code = main(["bench", *argv, "--data-dir", "../data", "--out", "out"])
        files = {p.name: p.read_bytes() for p in Path("out").glob("*")}
        seen.append((code, capsys.readouterr(), files, fires.call_count > 0))
    assert seen[0][0] == 0 and len(seen[0][2]) == 7
    assert seen[0][3] and not seen[1][3]  # the lockstep ran in the first run alone
    assert seen[0][:3] == seen[1][:3]


def test_every_benchmark_target_exists():
    # the benchmark traces these functions by name and reports one it cannot find as absent
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    absent = [f"{module}.{func}" for module, func, _ in layers.TARGETS
              if not callable(getattr(importlib.import_module(f"lebesgue_interp.{module}"), func,
                                      None))]
    assert layers.TARGETS and not absent


@pytest.mark.parametrize("workload", ["fixed-families", "budget-walks", "ucr-cli"])
def test_benchmark_smoke(workload):
    # a short traced benchmark run; run.py exits 0 even when a check fails, so read the
    # verdict it prints last
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "2", "--trace", "1"],
        cwd=root, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    verdict = json.loads(run.stdout.splitlines()[-1])
    assert verdict["correct"], run.stderr
    assert verdict["metrics"]["trace.absent"]["value"] == 0, run.stderr


_MEMORY_SMOKE = """
import resource, sys
from lebesgue_interp.cli import main
argv = ["bench", "--experiment", "2", "--synthetic", "walk=2", "--length", "6000",
        "--seed", "3", "--out", sys.argv[1]]
if main(argv) != 0:
    sys.exit("bench exited with an error")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_budget_tuning_memory_stays_bounded(tmp_path):
    # budget tuning on 2 walks x 6000 points (36M candidate pairs) must not hold its grid;
    # a child process, so that its peak RSS is this run's alone, and the largest of the
    # workers its grid pass forks is held to the same bound
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _MEMORY_SMOKE, str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    for mb in (int(kib) / 1024 for kib in run.stdout.split()[-2:]):  # ru_maxrss is in KiB
        assert mb <= 200, f"peak RSS {mb:.1f} MB exceeds 200 MB"
