"""Dataset ingestion, experiment orchestration and report emission.

Two experiment modes mirror the evaluation protocol: FIXED_THRESHOLD samples
every signal event-based at one threshold; BUDGET tunes a per-dataset
threshold to a sample budget and scores both the event-based and the
periodic regime ("L "/"R " method prefixes) on the same budget.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .baselines import chord_kernel, cubic_kernel, hold_kernel, nearest_kernel, reconstruct_block
from .core import (
    DatasetBundle,
    ReconstructionParams,
    SampledSeries,
    TimeSeries,
    normalize_unit_interval,
)
from .errors import InvalidInputError, ParseError
from .metrics import (
    DatasetResult,
    MethodReport,
    MethodScore,
    abruptness,
    aggregate_report,
    rank_methods,
    rmse_per_signal,
)
from .sampling import SampleBudget, lebesgue_sample, riemann_sample, tune_threshold
from .zelic import ANCHORS, TURNS

__all__ = [
    "METHODS",
    "ExperimentMode",
    "ExperimentConfig",
    "load_ucr_dataset",
    "generate_synthetic_corpus",
    "merge_bundles",
    "run_experiment",
    "run_benchmark",
    "emit_report",
]

# name -> (report label, knot plan, kernel): no plan, hold anchors, or
# anchors plus turn knots, joined by a hold, nearest, chord or cubic kernel
METHODS: dict[str, tuple[str, Callable | None, Callable]] = {
    "zoh": ("Zero", None, hold_kernel),
    "linear": ("Linear", None, chord_kernel),
    "nearest": ("Nearest", None, nearest_kernel),
    "pchip": ("PCHIP", None, cubic_kernel),
    "zeli": ("ZeLi", ANCHORS, chord_kernel),
    "zelic": ("ZeLiC", TURNS, chord_kernel),
    "zechip": ("ZeChip", ANCHORS, cubic_kernel),
    "zechipc": ("ZeChipC", TURNS, cubic_kernel),
}

# Grid points per block of signals that the scorer reconstructs at once; a
# longer signal is a block by itself. Kernel temporaries scale with a block.
BLOCK_POINTS = 3072


class ExperimentMode(Enum):
    FIXED_THRESHOLD = "fixed-threshold"
    BUDGET = "budget"


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol knobs; the defaults reproduce the reference setup
    (threshold 0.05, budget 15%, tolerance ratio 1.15, distances 3/3/unbounded)."""

    mode: ExperimentMode = ExperimentMode.FIXED_THRESHOLD
    threshold: float = 0.05
    target_fraction: float = 0.15
    tolerance_ratio: float = 1.15
    previous_distance: int = 3
    subsequent_min_distance: int = 3
    subsequent_max_distance: int | None = None
    methods: tuple[str, ...] = tuple(METHODS)
    seed: int = 0

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise InvalidInputError(f"unknown methods: {unknown}; choose from {sorted(METHODS)}")
        if not self.methods:
            raise InvalidInputError("at least one method is required")
        SampleBudget(self.target_fraction)  # validate range
        self.make_params(self.threshold)  # validate threshold, ratio and distances

    def make_params(self, threshold: float) -> ReconstructionParams:
        """Reconstruction parameters bound to the sampling threshold in use."""
        return ReconstructionParams(
            threshold=threshold,
            tolerance_ratio=self.tolerance_ratio,
            previous_distance=self.previous_distance,
            subsequent_min_distance=self.subsequent_min_distance,
            subsequent_max_distance=self.subsequent_max_distance,
        )

    def echo(self) -> dict[str, object]:
        """Every field in declaration order, as report.json records it; an
        infinite tolerance ratio, which JSON has no number for, as "inf"."""
        echo = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        ratio = "inf" if math.isinf(self.tolerance_ratio) else self.tolerance_ratio
        return echo | {
            "mode": self.mode.value, "tolerance_ratio": ratio, "methods": list(self.methods)
        }


# ---------------------------------------------------------------------------
# dataset ingestion
# ---------------------------------------------------------------------------


def parse_finite_fields(
    fields: Sequence[str], path: Path, row: int, first_column: int = 0
) -> list[float]:
    """One row's text fields as finite floats.

    A field that does not parse, or parses to NaN or inf, raises ParseError
    naming the file, the row and the column (counted from ``first_column``).
    """
    try:
        values = [float(f) for f in fields]
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        for c, f in enumerate(fields, first_column):
            try:
                x = float(f)
            except ValueError:
                raise ParseError(
                    f"{path}: cannot parse {f!r} at row {row}, column {c}", row=row, column=c
                ) from None
            if not math.isfinite(x):
                msg = f"{path}: non-finite value {f!r} at row {row}, column {c}"
                raise ParseError(msg, row=row, column=c)
    return values


def _parse_rows(path: Path) -> list[np.ndarray]:
    """Tab-separated rows with the label in column 0 dropped; columns count
    from the first value. Trailing NaN fields, the archive's padding of
    short rows, are trimmed; any other NaN or inf is an error."""
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    rows: list[np.ndarray] = []
    with path.open("r", newline="") as fh:
        for r, fields in enumerate(csv.reader(fh, delimiter="\t")):
            if not fields or (len(fields) == 1 and not fields[0].strip()):
                continue  # skip blank lines
            fields = fields[1:]
            while fields and fields[-1].strip().lower() == "nan":
                fields.pop()
            values = parse_finite_fields(fields, path, r)
            if not values:
                raise ParseError(f"{path}: row {r} has no values", row=r)
            rows.append(np.asarray(values, dtype=np.float64))
    return rows


def load_ucr_dataset(
    train_path: str | os.PathLike,
    test_path: str | os.PathLike | None = None,
    *,
    name: str | None = None,
) -> DatasetBundle:
    """Load a UCR archive TSV file pair into one bundle.

    Rows are a label followed by the signal values, tab separated; labels
    are discarded, trailing NaN padding is trimmed and train rows come
    before test rows.
    """
    train_path = Path(train_path)
    rows = _parse_rows(train_path)
    if test_path is not None:
        rows += _parse_rows(Path(test_path))
    if not rows:
        raise InvalidInputError(f"no data rows in {train_path}")

    if name is None:
        stem = train_path.stem
        for suffix in ("_TRAIN", "_TEST", "_train", "_test"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
                break
        name = stem
    return DatasetBundle(name=name, signals=tuple(TimeSeries(r) for r in rows))


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


def _gen_step(rng: np.random.Generator, length: int) -> np.ndarray:
    """Monotone staircase: flat plateaus joined by jumps well above the
    default threshold. Kept monotone so abrupt-change handling is exercised
    without entangling the slope-reversal gate (the triangle family owns
    reversals)."""
    margin = max(2, length // 12)
    positions = np.arange(margin, length - margin)
    n_jumps = min(int(rng.integers(4, 7)), positions.size)
    jumps = rng.uniform(0.12, 0.2, size=n_jumps)
    cuts = np.sort(rng.choice(positions, size=n_jumps, replace=False))
    levels = np.concatenate([[0.0], np.cumsum(jumps)])
    if rng.random() < 0.5:
        levels = levels[::-1]
    out = np.empty(length)
    bounds = [0, *cuts.tolist(), length]
    for seg in range(n_jumps + 1):
        out[bounds[seg] : bounds[seg + 1]] = levels[seg]
    return out


def _gen_ramp(rng: np.random.Generator, length: int) -> np.ndarray:
    """Monotone ramp with a mild curvature so signals are not all identical."""
    x = np.linspace(0.0, 1.0, length)
    p = rng.uniform(0.9, 1.1)
    y = x**p
    return y if rng.random() < 0.5 else 1.0 - y


def _gen_sine(rng: np.random.Generator, length: int) -> np.ndarray:
    cycles = rng.uniform(0.7, 1.15)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    x = np.arange(length, dtype=np.float64)
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * cycles * x / length + phase)


def _gen_triangle(rng: np.random.Generator, length: int) -> np.ndarray:
    """Zigzag of linear segments; slopes are gentle enough that captures a few
    steps apart bracket every vertex, which is the shape the slope-reversal
    knots are designed for."""
    y = np.empty(length)
    pos = 0
    level = rng.uniform(0.2, 0.8)
    direction = 1.0 if rng.random() < 0.5 else -1.0
    y[0] = level
    while pos < length - 1:
        seg = int(rng.integers(50, 91))
        swing = rng.uniform(0.3, 0.6)
        target = level + direction * swing
        if target > 1.0 or target < 0.0:
            direction = -direction
            target = level + direction * swing
        end = min(pos + seg, length - 1)
        y[pos : end + 1] = np.linspace(level, level + direction * swing * (end - pos) / seg, end - pos + 1)
        level = y[end]
        pos = end
        direction = -direction
    return y


def _gen_walk(rng: np.random.Generator, length: int) -> np.ndarray:
    steps = rng.normal(0.0, 0.02, size=length - 1)
    return np.concatenate([[0.0], np.cumsum(steps)])


_FAMILIES: dict[str, Callable[[np.random.Generator, int], np.ndarray]] = {
    "step": _gen_step,
    "ramp": _gen_ramp,
    "sine": _gen_sine,
    "triangle": _gen_triangle,
    "walk": _gen_walk,
}


def generate_synthetic_corpus(
    seed: int,
    counts: Mapping[str, int],
    length: int = 500,
    name: str = "synthetic",
) -> DatasetBundle:
    """Deterministic desk-scale corpus; every signal is normalized to [0, 1].

    ``counts`` maps family names (step, ramp, sine, triangle, walk) to
    signal counts; generation order is the mapping order, so the same seed
    and spec reproduce the bundle bit for bit.
    """
    if length < 16:
        raise InvalidInputError(f"length must be >= 16, got {length}")
    if not counts:
        raise InvalidInputError("counts must name at least one family")
    for family, count in counts.items():
        if family not in _FAMILIES:
            raise InvalidInputError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
        if count < 1:
            raise InvalidInputError(f"count for {family!r} must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    signals: list[TimeSeries] = []
    for family, count in counts.items():
        gen = _FAMILIES[family]
        for _ in range(count):
            signals.append(normalize_unit_interval(TimeSeries(gen(rng, length))))
    return DatasetBundle(name=name, signals=tuple(signals))


def merge_bundles(name: str, bundles: Sequence[DatasetBundle]) -> DatasetBundle:
    """Concatenate bundles into one, signals in bundle order."""
    if not bundles:
        raise InvalidInputError("no bundles to merge")
    return DatasetBundle(name=name, signals=tuple(s for b in bundles for s in b.signals))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _blocks(lengths: Sequence[int]):
    """[lo, hi) runs of consecutive signals with at most BLOCK_POINTS points in all."""
    lo = total = 0
    for i, n in enumerate(lengths):
        if total + n > BLOCK_POINTS and i > lo:
            yield lo, i
            lo, total = i, 0
        total += n
    yield lo, len(lengths)


def _score_sampled(
    signals: Sequence[TimeSeries],
    sampled: Sequence[SampledSeries],
    params: ReconstructionParams,
    methods: Sequence[str],
    prefix: str,
) -> list[MethodScore]:
    """Each method's per-signal RMSE, one kernel call per method and block;
    every signal must reproduce its kept points exactly."""
    table: dict[str, list[float]] = {m: [] for m in methods}
    for lo, hi in _blocks([s.source_length for s in sampled]):
        block = sampled[lo:hi]
        bounds = np.cumsum([0] + [s.source_length for s in block])
        knots = np.cumsum([0] + [len(s) for s in block])
        x = np.concatenate([s.indices + b for s, b in zip(block, bounds)])
        y = np.concatenate([s.values for s in block])
        first = np.zeros(x.size, dtype=bool)
        first[knots[:-1]] = True
        v = np.concatenate([ts.values for ts in signals[lo:hi]])
        for m in methods:
            _, plan, kernel = METHODS[m]
            out = reconstruct_block(plan, kernel, x, y, first, int(bounds[-1]), params)
            off = np.flatnonzero(out[x] != y)
            if off.size:
                i = lo + int(np.searchsorted(knots, off[0], side="right")) - 1
                raise AssertionError(
                    f"method {m!r} failed the interpolation condition on signal {i}"
                )
            table[m] += rmse_per_signal(v, out, bounds)
    return [MethodScore(prefix + METHODS[m][0], tuple(table[m])) for m in methods]


def run_experiment(bundle: DatasetBundle, config: ExperimentConfig) -> MethodReport:
    """Sample, reconstruct and score one dataset under the configured protocol.

    Fixed-threshold mode samples event-based at ``config.threshold``.
    Budget mode tunes one threshold per dataset, then scores every method
    under both regimes with "L "/"R " name prefixes; the event-aware
    methods reuse the tuned threshold as their band parameter in both.
    """
    normalized = [normalize_unit_interval(ts) for ts in bundle.signals]
    mean_abruptness = (
        float(np.mean([abruptness(ts) for ts in bundle.signals]))
        if all(len(ts) >= 2 for ts in bundle.signals)
        else None
    )

    if config.mode is ExperimentMode.FIXED_THRESHOLD:
        threshold = config.threshold
        regimes = {"": [lebesgue_sample(ts, threshold) for ts in normalized]}
        achieved = float(np.mean([s.fraction for s in regimes[""]]))
    else:
        budget = SampleBudget(config.target_fraction)
        threshold, achieved = tune_threshold(DatasetBundle(bundle.name, tuple(normalized)), budget)
        regimes = {
            "L ": [lebesgue_sample(ts, threshold) for ts in normalized],
            "R ": [riemann_sample(ts, budget) for ts in normalized],
        }
    params = config.make_params(threshold)
    scores = [
        score
        for prefix, sampled in regimes.items()
        for score in _score_sampled(normalized, sampled, params, config.methods, prefix)
    ]
    result = DatasetResult(
        dataset=bundle.name,
        scores=tuple(rank_methods(scores)),
        threshold=threshold,
        achieved_fraction=achieved,
        abruptness=mean_abruptness,
    )
    return aggregate_report([result], config=config.echo())


def run_benchmark(
    bundles: Sequence[DatasetBundle], config: ExperimentConfig
) -> MethodReport:
    """Run the experiment on several datasets and merge the rankings."""
    reports = [run_experiment(b, config) for b in bundles]
    per_dataset = [d for r in reports for d in r.datasets]
    return aggregate_report(per_dataset, config=config.echo())


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(x: float | int | None) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(x, ".17g")


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and insertion-order fields.

    The stdlib encoder prints floats via repr (shortest round trip); this
    fixed-width form keeps the serialized bytes independent of repr details
    while still parsing back to the identical float64.
    """
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise InvalidInputError(f"cannot serialize non-finite number {x}")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(f"{pad}  {_json_text(v, indent + 1)}" for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise InvalidInputError(f"cannot serialize {type(obj).__name__} to JSON")


def emit_report(report: MethodReport, out_dir: str | os.PathLike) -> list[Path]:
    """Write the per-dataset tables, the summary and the long-format CSV.

    Files: ``<dataset>_rmse.csv`` (one per dataset; columns are methods in
    summary order), ``summary.csv``, ``boxplot_long.csv`` and
    ``report.json``. Field order and number formatting (17 significant
    digits) are fixed, so identical reports serialize identically. Two
    dataset names that map to the same file name raise before any file is
    written.
    """
    if not report.summary:
        raise InvalidInputError("report has no methods")
    out = Path(out_dir)
    methods = list(report.method_names)
    tables: dict[str, DatasetResult] = {}
    for d in report.datasets:
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in d.dataset)
        if safe in tables:
            raise InvalidInputError(
                f"datasets {tables[safe].dataset!r} and {d.dataset!r} "
                f"would both write {safe}_rmse.csv"
            )
        tables[safe] = d

    payload = {
        "config": dict(report.config) if report.config else None,
        "datasets": [
            {
                "dataset": d.dataset,
                "threshold": d.threshold,
                "achieved_fraction": d.achieved_fraction,
                "abruptness": d.abruptness,
                "scores": [
                    {
                        "method": s.method_name,
                        "mean_rmse": s.mean_rmse,
                        "median_rmse": s.median_rmse,
                        "rank": s.rank_position,
                    }
                    for s in d.scores
                ],
            }
            for d in report.datasets
        ],
        "summary": [
            {
                "method": s.method_name,
                "mean_rmse": s.mean_rmse,
                "mean_rank": s.mean_rank,
                "wins": s.wins,
            }
            for s in report.summary
        ],
    }
    text = _json_text(payload) + "\n"

    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for safe, d in tables.items():
        path = out / f"{safe}_rmse.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", *methods])
            w.writerow([d.dataset, *(_fmt(d.score_for(m).mean_rmse) for m in methods)])
        written.append(path)

    path = out / "summary.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "mean_rmse", "mean_rank", "wins"])
        for s in report.summary:
            w.writerow([s.method_name, _fmt(s.mean_rmse), _fmt(s.mean_rank), s.wins])
    written.append(path)

    path = out / "boxplot_long.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "method", "rmse", "rank"])
        for d in report.datasets:
            for m in methods:
                sc = d.score_for(m)
                w.writerow([d.dataset, m, _fmt(sc.mean_rmse), sc.rank_position])
    written.append(path)

    path = out / "report.json"
    path.write_text(text)
    written.append(path)
    return written
