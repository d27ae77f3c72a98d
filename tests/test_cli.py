import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lebesgue_interp import ReconstructionParams, TimeSeries, lebesgue_sample, verify
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

    def test_missing_input_exits_2(self, tmp_path):
        code = main(["sample", "--input", str(tmp_path / "absent.txt"),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2

    def test_nan_in_signal_names_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "gappy.txt"
        path.write_text("0.1\n0.2\nnan\n0.4\n")
        code = main(["sample", "--input", str(path), "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert f"error: {path}: non-finite value 'nan' at row 2, column 0" in capsys.readouterr().err

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

    def test_budget_on_constant_rows(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "Flat_TRAIN.tsv").write_text("1\t" + "\t".join(["0.5"] * 10) + "\n")
        out = tmp_path / "rep4"
        assert main(["bench", "--experiment", "2", "--data-dir", str(data), "--out", str(out)]) == 0
        ds = json.loads((out / "report.json").read_text())["datasets"][0]
        assert ds["achieved_fraction"] == 0.1

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

    def test_datasets_sharing_a_file_name_rejected(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "Foo_TRAIN.tsv").write_text("1\t0.1\t0.4\t0.2\t0.9\n")
        out = tmp_path / "rep"
        assert main(["bench", "--data-dir", str(tmp_path), "--out", str(out)]) == 1
        assert "datasets 'Foo' and 'Foo' would both write Foo_rmse.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_dir_exits_2(self, tmp_path):
        code = main(["bench", "--data-dir", str(tmp_path / "void"), "--out", str(tmp_path)])
        assert code == 2

    def test_bad_budget_exits_1(self, tmp_path):
        code = main(["bench", "--experiment", "2", "--budget", "1.5",
                     "--synthetic", "walk=2", "--out", str(tmp_path / "x")])
        assert code == 1


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

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["sample", "--frobnicate"]) == 1

    def test_unknown_subcommand_exits_1(self):
        assert main(["dance"]) == 1
