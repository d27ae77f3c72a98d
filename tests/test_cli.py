import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lebesgue_interp import (
    ExperimentConfig,
    ParseError,
    ReconstructionParams,
    TimeSeries,
    bench,
    cli,
    emit_report,
    lebesgue_sample,
    load_ucr_dataset,
    run_benchmark,
    verify,
)
from lebesgue_interp.bench import METHODS
from lebesgue_interp.cli import main
from conftest import PER_SIGNAL


@pytest.fixture
def signal_file(tmp_path):
    rng = np.random.default_rng(0)
    walk = np.cumsum(rng.normal(0, 0.05, size=80))
    walk = (walk - walk.min()) / (walk.max() - walk.min())
    path = tmp_path / "signal.txt"
    path.write_text("\n".join(repr(v) for v in walk.tolist()) + "\n")
    return path, walk


def missing_file_message(path):
    return f"[Errno 2] No such file or directory: '{path}'"


def read_value_column(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return [float(v) for _, v in rows[1:]]


class TestSampleCommand:
    def test_lebesgue_roundtrip_matches_library(self, tmp_path, signal_file, capsys):
        path, walk = signal_file
        out = tmp_path / "sampled.csv"
        assert main(["sample", "--input", str(path), "--output", str(out),
                     "--regime", "lebesgue", "--threshold", "0.1"]) == 0
        lib = lebesgue_sample(TimeSeries(walk), 0.1)
        with out.open() as fh:
            meta = fh.readline()
        assert f"source_length={len(walk)}" in meta
        assert read_value_column(out) == lib.values.tolist()

    def test_negative_threshold_exits_1(self, tmp_path, signal_file):
        path, _ = signal_file
        code = main(["sample", "--input", str(path), "--output", str(tmp_path / "o.csv"),
                     "--regime", "lebesgue", "--threshold", "-1"])
        assert code == 1

    def test_missing_input_exits_2(self, tmp_path, capsys):
        absent = tmp_path / "absent.txt"
        code = main(["sample", "--input", str(absent), "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"I/O error: {missing_file_message(absent)}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_nan_in_signal_names_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "gappy.txt"
        path.write_text("0.1\n0.2\nnan\n0.4\n")
        code = main(["sample", "--input", str(path), "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert f"error: {path}: non-finite value 'nan' at row 2, column 0" in capsys.readouterr().err

    def test_bad_field_in_a_comma_row_names_its_row_and_column(self, tmp_path, capsys):
        # the file converts at once; the error still names the first bad field's own line
        path = tmp_path / "rows.txt"
        path.write_text("0.1\n# note\n\n0.2, 0.3,abc\n1e999\n")
        code = main(["sample", "--input", str(path), "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: cannot parse 'abc' at row 3, column 2\n"

    def test_riemann_regime(self, tmp_path, signal_file):
        path, walk = signal_file
        out = tmp_path / "sampled.csv"
        assert main(["sample", "--input", str(path), "--output", str(out),
                     "--regime", "riemann", "--fraction", "0.25"]) == 0
        assert len(read_value_column(out)) == int(np.ceil(0.25 * len(walk)))


class TestReconstructCommand:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_byte_identical_to_library(self, tmp_path, signal_file, method):
        path, walk = signal_file
        sampled = tmp_path / "sampled.csv"
        recon = tmp_path / "recon.csv"
        main(["sample", "--input", str(path), "--output", str(sampled), "--threshold", "0.05"])
        assert main(["reconstruct", "--input", str(sampled), "--output", str(recon),
                     "--method", method]) == 0
        lib = PER_SIGNAL[method](
            lebesgue_sample(TimeSeries(walk), 0.05), ReconstructionParams(threshold=0.05)
        )
        assert read_value_column(recon) == lib.tolist()

    def test_two_knot_smooth_fixture(self, tmp_path):
        sampled = tmp_path / "s.csv"
        sampled.write_text(
            "# source_length=5 threshold=0.05\nindex,value\n0,0.0\n4,0.056\n"
        )
        recon = tmp_path / "r.csv"
        assert main(["reconstruct", "--input", str(sampled), "--output", str(recon),
                     "--method", "zeli"]) == 0
        got = read_value_column(recon)
        np.testing.assert_allclose(got, [0.0, 0.014, 0.028, 0.042, 0.056], atol=1e-15)

    def test_missing_input_exits_2(self, tmp_path, capsys):
        absent, recon = tmp_path / "absent.csv", tmp_path / "r.csv"
        code = main(["reconstruct", "--input", str(absent), "--output", str(recon),
                     "--method", "zoh"])
        assert code == 2
        assert capsys.readouterr().err == f"I/O error: {missing_file_message(absent)}\n"
        assert not recon.exists()

    def test_unknown_method_exits_1(self, tmp_path):
        sampled = tmp_path / "s.csv"
        sampled.write_text("# source_length=5 threshold=0.05\nindex,value\n0,0.0\n")
        code = main(["reconstruct", "--input", str(sampled),
                     "--output", str(tmp_path / "r.csv"), "--method", "wavelet"])
        assert code == 1

    def test_inf_in_sampled_names_file_and_row(self, tmp_path, capsys):
        sampled = tmp_path / "s.csv"
        sampled.write_text("# source_length=5 threshold=0.05\nindex,value\n0,0.0\n2,inf\n")
        code = main(["reconstruct", "--input", str(sampled),
                     "--output", str(tmp_path / "r.csv"), "--method", "linear"])
        assert code == 1
        assert f"error: {sampled}: non-finite value 'inf' at row 3, column 1" in capsys.readouterr().err

    def test_row_of_three_fields_names_file_and_row(self, tmp_path):
        sampled = tmp_path / "s.csv"
        sampled.write_text("# source_length=5 threshold=0.05\nindex,value\n0,0.0\na,b,c\n")
        with pytest.raises(ParseError) as err:
            cli._read_sampled(sampled, None, None)
        assert str(err.value) == f"{sampled}: expected 'index,value' at row 3"
        assert main(["reconstruct", "--input", str(sampled), "--output", str(tmp_path / "r.csv"),
                     "--method", "linear"]) == 1

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_overflowing_knots_never_written(self, tmp_path, method):
        sampled = tmp_path / "s.csv"
        sampled.write_text(
            "# source_length=11 threshold=0.05\nindex,value\n0,1e308\n5,-1e308\n10,1e308\n"
        )
        recon = tmp_path / "r.csv"
        assert main(["reconstruct", "--input", str(sampled), "--output", str(recon),
                     "--method", method]) == 0
        got = read_value_column(recon)
        assert np.all(np.isfinite(got))
        assert [got[i] for i in (0, 5, 10)] == [1e308, -1e308, 1e308]

    @pytest.mark.parametrize(
        "method, text",
        [
            ("linear", "# source_length=4 threshold=0.05\n0,1e308\n1,-1e308\n2,1e308\n3,0\n"),
            ("pchip", "# source_length=3 threshold=0\n0,5e-324\n1,0.0\n2,5e-324\n"),
        ],
        ids=["linear-huge", "pchip-subnormal"],
    )
    def test_extreme_knots_reconstruct_silently(self, tmp_path, capsys, method, text):
        # the kernels overflow in intermediate terms that the result never uses
        sampled = tmp_path / "s.csv"
        sampled.write_text(text)
        recon = tmp_path / "r.csv"
        assert main(["reconstruct", "--input", str(sampled), "--output", str(recon),
                     "--method", method]) == 0
        assert capsys.readouterr().err == ""
        knots = [float(row.split(",")[1]) for row in text.splitlines()[1:]]
        assert read_value_column(recon) == knots

    @pytest.mark.parametrize(
        "text",
        [
            "# source_length=5 threshold=0.05\n0,0.0\n100000000000000000000,0.5\n",
            "# source_length=5 threshold=0.05\n0,0.0\n9223372036854775808,0.5\n",
            "# source_length=100000000000000000000 threshold=0.05\n0,0.0\n3,0.5\n",
            "# source_length=five threshold=0.05\n0,0.0\n3,0.5\n",
            "# source_length=5 threshold=small\n0,0.0\n3,0.5\n",
        ],
        ids=["index-huge", "index-2**63", "length-huge", "length-text", "threshold-text"],
    )
    def test_field_outside_int64_or_unparsable(self, tmp_path, capsys, text):
        sampled = tmp_path / "s.csv"
        sampled.write_text(text)
        recon = tmp_path / "r.csv"
        assert main(["reconstruct", "--input", str(sampled), "--output", str(recon),
                     "--method", "linear"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {sampled}: cannot parse ")
        assert not recon.exists()

    @pytest.mark.parametrize("length", ["100000000000000000000", "9223372036854775808"])
    def test_length_option_outside_int64(self, tmp_path, capsys, length):
        sampled = tmp_path / "s.csv"
        sampled.write_text("# source_length=5 threshold=0.05\n0,0.0\n3,0.5\n")
        recon = tmp_path / "r.csv"
        assert main(["reconstruct", "--input", str(sampled), "--output", str(recon),
                     "--method", "linear", "--length", length]) == 1
        assert f"error: argument --length: invalid int64 value: '{length}'" in capsys.readouterr().err
        assert not recon.exists()

    @pytest.mark.parametrize("where", ["file", "option"])
    def test_length_beyond_memory(self, tmp_path, capsys, where):
        # inside int64, but 4 EiB of output: the allocation fails at once
        length = 2**59
        sampled = tmp_path / "s.csv"
        sampled.write_text(f"# source_length={length if where == 'file' else 5} threshold=0.05\n"
                           "0,0.0\n3,0.5\n")
        recon = tmp_path / "r.csv"
        extra = ["--length", str(length)] if where == "option" else []
        assert main(["reconstruct", "--input", str(sampled), "--output", str(recon),
                     "--method", "linear", *extra]) == 1
        assert capsys.readouterr().err == f"error: source length {length} does not fit in memory\n"
        assert not recon.exists()

    @pytest.mark.parametrize("where", ["file", "option"])
    def test_length_past_array_size_limit(self, tmp_path, capsys, where):
        # the largest int64: numpy refuses the allocation before trying it
        length = 2**63 - 1
        sampled = tmp_path / "s.csv"
        sampled.write_text(f"# source_length={length if where == 'file' else 5} threshold=0.05\n"
                           "0,0.0\n3,0.5\n")
        recon = tmp_path / "r.csv"
        extra = ["--length", str(length)] if where == "option" else []
        assert main(["reconstruct", "--input", str(sampled), "--output", str(recon),
                     "--method", "pchip", *extra]) == 1
        assert capsys.readouterr().err == f"error: source length {length} does not fit in memory\n"
        assert not recon.exists()

    def test_missing_metadata_requires_length(self, tmp_path):
        sampled = tmp_path / "s.csv"
        sampled.write_text("index,value\n0,0.0\n3,0.5\n")
        code = main(["reconstruct", "--input", str(sampled),
                     "--output", str(tmp_path / "r.csv"), "--method", "linear"])
        assert code == 1
        assert main(["reconstruct", "--input", str(sampled), "--output",
                     str(tmp_path / "r.csv"), "--method", "linear", "--length", "6",
                     "--threshold", "0.05"]) == 0


class TestBenchCommand:
    def test_synthetic_run_writes_reports(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["bench", "--experiment", "1", "--threshold", "0.05",
                     "--synthetic", "step=3,sine=3", "--length", "150",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        assert (out / "summary.csv").exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["mode"] == "fixed-threshold"
        assert {d["dataset"] for d in payload["datasets"]} == {"step", "sine"}

    # sine and ramp are left out: np.sin and x**p may differ in the last bits between machines
    @pytest.mark.parametrize("name, argv", [
        ("fixed", ["--experiment", "1", "--synthetic", "step=3,walk=3,triangle=3",
                   "--length", "120", "--seed", "2"]),
        ("budget", ["--experiment", "2", "--synthetic", "walk=4", "--length", "200",
                    "--seed", "3", "--tolerance-ratio", "inf", "--max-dist", "40"]),
    ], ids=["fixed", "budget"])
    def test_reports_equal_the_golden_copies(self, tmp_path, name, argv):
        out, golden = tmp_path / name, Path(__file__).parent / "golden" / name
        assert main(["bench", *argv, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
        for path in golden.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_budget_experiment(self, tmp_path):
        out = tmp_path / "rep2"
        code = main(["bench", "--experiment", "2", "--budget", "0.2",
                     "--synthetic", "walk=4", "--length", "200",
                     "--methods", "zoh,linear,zeli", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        ds = payload["datasets"][0]
        assert ds["achieved_fraction"] <= 0.2
        assert any(s["method"].startswith("R ") for s in ds["scores"])

    def test_data_dir_mode(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        rows_train = "\n".join(
            "1\t" + "\t".join(repr(v) for v in np.linspace(i, i + 1, 60).tolist())
            for i in range(3)
        )
        (data / "Lines_TRAIN.tsv").write_text(rows_train + "\n")
        out = tmp_path / "rep3"
        code = main(["bench", "--data-dir", str(data), "--out", str(out),
                     "--methods", "zoh,linear"])
        assert code == 0
        assert (out / "Lines_rmse.csv").exists()

    def _pair_scored_together(self, tmp_path, seed, train_name, test_name, name):
        """--data-dir scores the train and test rows as one dataset, as the library does."""
        data = tmp_path / "data"
        data.mkdir()
        rng = np.random.default_rng(seed)
        rows = ["1\t" + "\t".join(map(repr, np.cumsum(rng.normal(0, 0.1, 80)).tolist()))
                for _ in range(3)]
        train, test = data / train_name, data / test_name
        train.write_text(rows[0] + "\n")
        test.write_text("\n".join(rows[1:]) + "\n")
        assert main(["bench", "--data-dir", str(data), "--out", str(tmp_path / "cli")]) == 0
        bundle = load_ucr_dataset(train, test)
        assert (bundle.name, len(bundle)) == (name, 3)
        paths = emit_report(run_benchmark([bundle], ExperimentConfig()), tmp_path / "lib")
        assert {p.name: p.read_bytes() for p in (tmp_path / "cli").iterdir()} == {
            p.name: p.read_bytes() for p in paths
        }

    def test_data_dir_pairs_files_by_their_suffix_only(self, tmp_path):
        # "_TRAIN" inside the dataset name must not change the test file looked for
        self._pair_scored_together(tmp_path, 4, "X_TRAINSET_TRAIN.tsv", "X_TRAINSET_TEST.tsv",
                                   "X_TRAINSET")

    def test_data_dir_pairs_lower_case_suffixes(self, tmp_path):
        self._pair_scored_together(tmp_path, 5, "Baz_train.tsv", "Baz_test.tsv", "Baz")

    @pytest.mark.parametrize(
        "names, message",
        [
            (["Foo_TRAIN.tsv", "Bar_TEST.tsv"], "{d}/Bar_TEST.tsv has no train file beside it"),
            (["Foo_TRAIN.tsv", "Foo_train.tsv"],
             "one dataset has 2 train files: {d}/Foo_TRAIN.tsv, {d}/Foo_train.tsv"),
            (["Foo_TRAIN.tsv", "notes.tsv"], "{d}/notes.tsv has no _TRAIN or _TEST suffix"),
        ],
        ids=["orphan-test", "two-trains", "no-suffix"],
    )
    def test_data_dir_file_without_its_place_rejected(self, tmp_path, capsys, names, message):
        data = tmp_path / "data"
        data.mkdir()
        for name in names:
            (data / name).write_text("1\t0.1\t0.4\t0.2\t0.9\n")
        out = tmp_path / "rep"
        assert main(["bench", "--data-dir", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(d=data)}\n"
        assert not out.exists()

    def test_budget_on_constant_rows(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "Flat_TRAIN.tsv").write_text("1\t" + "\t".join(["0.5"] * 10) + "\n")
        out = tmp_path / "rep4"
        assert main(["bench", "--experiment", "2", "--data-dir", str(data), "--out", str(out)]) == 0
        ds = json.loads((out / "report.json").read_text())["datasets"][0]
        assert ds["achieved_fraction"] == 0.1

    def test_infeasible_budget_names_the_dataset(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "Lines_TRAIN.tsv").write_text(
            "1\t" + "\t".join(repr(v) for v in np.linspace(0, 1, 60).tolist()) + "\n")
        (data / "Spiky_TRAIN.tsv").write_text("1\t0.0\t1.0\t0.0\t1.0\n")
        out = tmp_path / "rep6"
        argv = ["bench", "--experiment", "2", "--budget", "0.1", "--data-dir", str(data)]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: dataset 'Spiky': budget 0.1 infeasible: minimum achievable fraction is 0.25\n"
        )

    def test_nan_padded_rows(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "Pad_TRAIN.tsv").write_text("1\t0.1\t0.4\t0.2\t0.5\t0.9\n2\t0.3\t0.9\tNaN\tNaN\tNaN\n")
        out = tmp_path / "rep5"
        assert main(["bench", "--data-dir", str(data), "--out", str(out)]) == 0
        assert (out / "Pad_rmse.csv").exists()

    @pytest.mark.parametrize(
        "args, code",
        [
            (["--tolerance-ratio", "inf"], 0),
            (["--budget", "nan"], 1),
            (["--experiment", "2", "--threshold", "nan"], 1),
            (["--experiment", "2", "--threshold", "inf"], 1),
        ],
        ids=["ratio-inf", "budget-nan-fixed", "threshold-nan-budget", "threshold-inf-budget"],
    )
    def test_non_finite_arguments(self, tmp_path, args, code):
        out = tmp_path / "rep"
        assert main(["bench", "--synthetic", "walk=3", "--length", "100",
                     "--out", str(out), *args]) == code
        if code == 0:
            config = json.loads((out / "report.json").read_text())["config"]
            assert config["tolerance_ratio"] == "inf"
        else:
            assert not out.exists()

    def test_abruptness_of_steps_beyond_the_float_range(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "Huge_TRAIN.tsv").write_text("1\t1e308\t-1e308\t1e308\t0.5\n")
        (data / "Huger_TRAIN.tsv").write_text("1\t1e308\t-1e308\t1e308\t-1e308\n")
        out = tmp_path / "rep"
        assert main(["bench", "--data-dir", str(data), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        huge, huger = json.loads((out / "report.json").read_text())["datasets"]
        assert huge["abruptness"] == pytest.approx(1.6996731711975948e308, rel=1e-15)
        assert huger["abruptness"] is None  # the true value exceeds the float range

    def test_datasets_sharing_a_file_name_rejected(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "Foo_TRAIN.tsv").write_text("1\t0.1\t0.4\t0.2\t0.9\n")
        out = tmp_path / "rep"
        assert main(["bench", "--data-dir", str(tmp_path), "--out", str(out)]) == 1
        assert "datasets 'Foo' and 'Foo' would both write Foo_rmse.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_file_name_collision_fails_before_any_dataset_loads(self, tmp_path, capsys,
                                                               monkeypatch):
        data, loads = tmp_path / "data", []
        data.mkdir()
        for name in ("a.b", "a_b"):
            (data / f"{name}_TRAIN.tsv").write_text("1\t0.1\t0.4\t0.2\t0.9\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every load runs here
        monkeypatch.setattr(bench, "load_ucr_dataset",
                            lambda *pair: loads.append(pair) or load_ucr_dataset(*pair))
        out = tmp_path / "rep"
        assert main(["bench", "--data-dir", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: datasets 'a.b' and 'a_b' would both write a_b_rmse.csv\n")
        assert loads == []
        assert not out.exists()

    def test_comma_separated_row_longer_than_a_csv_field(self, tmp_path, capsys):
        # one 15,000-value field: more than csv.reader's 131,072-character limit
        (tmp_path / "D").mkdir()
        train = tmp_path / "D" / "D_TRAIN.tsv"
        train.write_text("1," + ",".join(["0.123456789"] * 15000) + "\n")
        out = tmp_path / "rep"
        assert main(["bench", "--data-dir", str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {train}: row 0 has no values\n"
        assert not out.exists()

    def test_missing_data_dir_exits_2(self, tmp_path):
        code = main(["bench", "--data-dir", str(tmp_path / "void"), "--out", str(tmp_path)])
        assert code == 2

    def test_bad_budget_exits_1(self, tmp_path):
        code = main(["bench", "--experiment", "2", "--budget", "1.5",
                     "--synthetic", "walk=2", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_repeated_method_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "generate_synthetic_corpus", None)  # never reached
        out = tmp_path / "rep"
        assert main(["bench", "--synthetic", "walk=3", "--length", "100",
                     "--methods", "zoh,zoh,linear", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: methods named more than once: ['zoh']\n"
        assert not out.exists()

    def test_empty_data_dir_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch):
        # an empty --data-dir neither falls back to the synthetic corpus nor scans the
        # working directory, which holds a dataset here
        monkeypatch.setattr(cli, "generate_synthetic_corpus", None)  # never reached
        monkeypatch.setattr(bench, "load_ucr_dataset", None)  # never reached
        (tmp_path / "Here_TRAIN.tsv").write_text("1\t0.0\t0.5\t1.0\n")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "rep"
        assert main(["bench", "--data-dir", "", "--synthetic", "walk=2", "--length", "20",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --data-dir is empty; name a directory\n"
        assert not out.exists()

    def test_empty_methods_exits_1(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["bench", "--synthetic", "walk=2", "--length", "20", "--methods", "",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: unknown methods: ['']; choose from")
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("walk=3,walk=2", "--synthetic names 'walk' twice: 'walk=2'"),
            ("sine,walk=2,sine=4", "--synthetic names 'sine' twice: 'sine=4'"),
            ("walk=abc", "--synthetic: cannot parse the count in 'walk=abc'"),
            ("sine=2,walk=3.5", "--synthetic: cannot parse the count in 'walk=3.5'"),
        ],
        ids=["repeat", "repeat-without-count", "text-count", "float-count"],
    )
    def test_bad_synthetic_spec_exits_1(self, tmp_path, capsys, spec, message):
        out = tmp_path / "rep"
        assert main(["bench", "--synthetic", spec, "--length", "100", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_exits_1_naming_seed(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["bench", "--seed", "-1", "--synthetic", "walk=2", "--length", "20",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_synthetic_corpus_too_large_exits_1(self, tmp_path):
        # 10**20 signals: numpy refuses the corpus array before any signal is made; a child
        # process with its address space capped, so that a regression fails instead of
        # filling memory
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / "rep"
        run = subprocess.run([sys.executable, "-c", _HUGE_CORPUS, str(out)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 1, run.stderr
        points = 10**20 * 16
        assert run.stderr == f"error: synthetic corpus of {points} points does not fit in memory\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 7.45 GiB for an array"),
             "error: out of memory: Unable to allocate 7.45 GiB for an array\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch, exc, line):
        def run_benchmark(bundles, config):
            raise exc

        monkeypatch.setattr(cli, "run_benchmark", run_benchmark)
        out = tmp_path / "rep"
        assert main(["bench", "--synthetic", "walk=1", "--length", "100", "--out", str(out)]) == 1
        assert capsys.readouterr().err == line
        assert not out.exists()


_HUGE_CORPUS = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
from lebesgue_interp.cli import main
sys.exit(main(["bench", "--synthetic", "walk=100000000000000000000", "--length", "16",
               "--out", sys.argv[1]]))
"""


_EXTREMES = ("1e308", "-1e308", "1.7976931348623157e308", "5e-324", "-5e-324", "0", "-0.0")
_BAD = ("nan", "inf", "-inf", "abc")
_TOKEN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(_EXTREMES),
)
_LINE = st.one_of(
    st.sampled_from(["", "   ", "# comment"]),
    _TOKEN,
    st.lists(_TOKEN, min_size=2, max_size=4).map(",".join),
    st.tuples(_TOKEN, st.integers(2, 6)).map(lambda run: "\n".join([run[0]] * run[1])),
)


@st.composite
def signal_texts(draw):
    """Signal file text; about one file in four carries an unparsable or
    non-finite token."""
    lines = draw(st.lists(_LINE, max_size=10))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD)))
    return "\n".join(lines) + "\n"


def _expected_signal(text):
    """The values a signal file holds, or None when it must be rejected."""
    values = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            for field in line.replace(",", " ").split():
                try:
                    values.append(float(field))
                except ValueError:
                    return None
    ok = values and all(math.isfinite(v) for v in values)
    return values if ok else None


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestCliFuzz:
    @given(
        text=signal_texts(),
        threshold=st.sampled_from([0.0, 0.05, 1.0, 1e308]),
        fraction=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_sample_then_reconstruct(self, tmp_path_factory, text, threshold, fraction):
        work = tmp_path_factory.mktemp("fuzz")
        signal = work / "signal.txt"
        signal.write_text(text)
        want = _expected_signal(text)
        regimes = {"lebesgue": ["--threshold", repr(threshold)],
                   "riemann": ["--fraction", repr(fraction)]}
        for regime, knob in regimes.items():
            sampled = work / f"{regime}.csv"
            code, err = _run(["sample", "--input", str(signal), "--output", str(sampled),
                              "--regime", regime, *knob])
            if want is None:
                assert code == 1 and err.startswith("error: ") and str(signal) in err
                continue
            assert code == 0, err
            with sampled.open(newline="") as fh:
                rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
            idx = [int(i) for i, _ in rows]
            knots = [float(v) for _, v in rows]
            assert knots == [want[i] for i in idx]
            for method in sorted(METHODS):
                recon = work / "recon.csv"
                recon.unlink(missing_ok=True)
                code, err = _run(["reconstruct", "--input", str(sampled), "--output", str(recon),
                                  "--method", method])
                if code == 1:
                    assert err.startswith("error: ") and not recon.exists()
                    continue
                assert code == 0, err
                got = read_value_column(recon)
                assert len(got) == len(want)
                assert all(math.isfinite(v) for v in got)
                assert [got[i] for i in idx] == knots, method


CHECKS = (
    "sampler-vs-naive-trace",
    "tolerated-region-containment",
    "limit-condition-vs-interior-scan",
    "convexity-false-assumption-area",
    "pchip-shape-preservation",
)


class TestVerifyAndHelp:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"[PASS] {name}" for name in CHECKS]

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        failed = verify.CheckResult("tolerated-region-containment", False, "1 point escaped")
        monkeypatch.setattr(verify, "check_band", lambda seed, count: failed)
        assert main(["verify"]) == 1
        assert "[FAIL] tolerated-region-containment: 1 point escaped" in capsys.readouterr().out

    def test_help_exits_0_and_lists_subcommands(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("sample", "reconstruct", "bench", "verify"):
            assert sub in out

    def test_subcommand_help_lists_flags(self, capsys):
        assert main(["reconstruct", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--method", "--threshold", "--tolerance-ratio",
                     "--prev-dist", "--min-dist", "--max-dist"):
            assert flag in out

    def test_defaults_are_the_config_defaults(self):
        parser = cli._build_parser()
        config = ExperimentConfig()
        params = {f.name: f.default for f in dataclasses.fields(ReconstructionParams)
                  if f.name != "threshold"}
        assert {name: getattr(config, name) for name in params} == params
        sample = parser.parse_args(["sample", "--input", "i", "--output", "o"])
        assert (sample.threshold, sample.fraction) == (config.threshold, config.target_fraction)
        bench = parser.parse_args(["bench"])
        assert (bench.threshold, bench.budget, bench.seed) == (
            config.threshold, config.target_fraction, config.seed)
        for args in (bench, parser.parse_args(["reconstruct", "--input", "i", "--output", "o",
                                               "--method", "zoh"])):
            flags = (args.tolerance_ratio, args.prev_dist, args.min_dist, args.max_dist)
            assert dict(zip(params, flags)) == params

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--experiment", "3"], "argument --experiment: invalid choice: "),
        (["sample", "--input", "signal.txt"], "the following arguments are required: --output"),
    ], ids=["bad-choice", "missing-option"])
    def test_usage_error_exits_1_after_usage(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # where bench would write bench_out/
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: lebesgue-interp {argv[0]} ")
        assert err[-1].startswith(f"lebesgue-interp {argv[0]}: error: {message}")
        assert not any(tmp_path.iterdir())

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["sample", "--frobnicate"]) == 1

    def test_unknown_subcommand_exits_1(self):
        assert main(["dance"]) == 1

    def test_import_loads_neither_logging_nor_concurrent_futures(self):
        # a fresh interpreter, so that modules other tests loaded do not count; importing
        # concurrent.futures would pull in logging and add milliseconds to every command's start
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import sys, lebesgue_interp.bench, lebesgue_interp.cli; "
                "print(sorted(m for m in ('logging', 'concurrent.futures') if m in sys.modules))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                                 filter(None, [src, os.environ.get("PYTHONPATH")]))))
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n")[0] == "[]"

    def test_bench_runs_do_not_load_numpy_ma(self, tmp_path):
        # np.unique and np.median load numpy.ma on their first call in a process, which costs
        # a one-shot run about 1 MB and 10 ms; a fresh interpreter, as above
        src = str(Path(__file__).resolve().parent.parent / "src")
        run = subprocess.run([sys.executable, "-c", _BENCH_BOTH_EXPERIMENTS, str(tmp_path)],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                                 filter(None, [src, os.environ.get("PYTHONPATH")]))))
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "numpy.ma loaded: False"


_BENCH_BOTH_EXPERIMENTS = """
import os, sys
os.sched_getaffinity = lambda pid: {0}  # one CPU: every dataset runs in this process
from lebesgue_interp import SampleBudget, generate_synthetic_corpus, tune_threshold
from lebesgue_interp.cli import main
for experiment in ("1", "2"):
    assert main(["bench", "--experiment", experiment, "--synthetic", "walk=3,step=2,sine=2",
                 "--length", "120", "--out", f"{sys.argv[1]}/{experiment}"]) == 0
tune_threshold(generate_synthetic_corpus(3, {"walk": 2}, 200), SampleBudget(0.15))
print("numpy.ma loaded:", "numpy.ma" in sys.modules)
"""
