"""Dataset ingestion, experiment orchestration and report emission.

Two experiment modes mirror the evaluation protocol: FIXED_THRESHOLD samples every signal
event-based at one threshold; BUDGET tunes a per-dataset threshold to a sample budget and
scores both the event-based and the periodic regime ("L "/"R " method prefixes) on the same
budget. ``run_ucr_archive`` applies the UCR archive's file rules to a directory tree.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .baselines import (
    Grid,
    chord_kernel,
    cubic_kernel,
    hold_kernel,
    nearest_kernel,
    reconstruct_block,
)
from .core import (DatasetBundle, InvalidInputError, ParseError, ReconstructionParams, _fork_map,
                   _normalize, _runs)
from .metrics import (
    DatasetResult,
    MethodReport,
    MethodScore,
    aggregate_report,
    mean_abruptness,
    rmse_per_signal,
    signal_blocks,
)
from .sampling import SampleBudget, _periodic, _send_on_delta, tune_threshold
from .zelic import ANCHORS, TURNS

__all__ = [
    "METHODS",
    "ExperimentMode",
    "ExperimentConfig",
    "load_ucr_dataset",
    "generate_synthetic_corpus",
    "run_experiment",
    "run_benchmark",
    "run_ucr_archive",
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

class ExperimentMode(Enum):
    FIXED_THRESHOLD = "fixed-threshold"
    BUDGET = "budget"


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol knobs; the defaults reproduce the reference setup: threshold
    0.05, budget 15%, and the band and turn gates of ReconstructionParams."""

    mode: ExperimentMode = ExperimentMode.FIXED_THRESHOLD
    threshold: float = 0.05
    target_fraction: float = 0.15
    tolerance_ratio: float = ReconstructionParams.tolerance_ratio
    previous_distance: int = ReconstructionParams.previous_distance
    subsequent_min_distance: int = ReconstructionParams.subsequent_min_distance
    subsequent_max_distance: int | None = ReconstructionParams.subsequent_max_distance
    methods: tuple[str, ...] = tuple(METHODS)
    seed: int = 0

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise InvalidInputError(f"unknown methods: {unknown}; choose from {sorted(METHODS)}")
        if not self.methods:
            raise InvalidInputError("at least one method is required")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise InvalidInputError(f"methods named more than once: {repeated}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        SampleBudget(self.target_fraction)  # validate range
        self.make_params(self.threshold)  # validate threshold, ratio and distances

    def make_params(self, threshold: float) -> ReconstructionParams:
        """Reconstruction parameters bound to the sampling threshold in use, with
        this config's band and turn gates."""
        gates = {f.name: getattr(self, f.name) for f in dataclasses.fields(ReconstructionParams)}
        return ReconstructionParams(**gates | {"threshold": threshold})

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
    fields: Sequence[str], path: Path, lines: Sequence[tuple[int, int]], first_column: int = 0
) -> np.ndarray:
    """Text fields as finite floats, parsed as ``float`` parses them, all at once.

    ``lines`` holds each line's (row, end): its row in the file and the end of
    its fields in ``fields``. A field that does not parse, or parses to NaN or
    inf, raises ParseError naming the file, the row and the column in its line
    (counted from ``first_column``).
    """
    with contextlib.suppress(ValueError):
        values = np.array(fields, dtype=np.float64)
        if np.isfinite(values).all():
            return values
    start = 0
    for row, end in lines:
        for c, f in enumerate(fields[start:end], first_column):
            try:
                x = float(f)
            except ValueError:
                msg = f"{path}: cannot parse {f!r} at row {row}, column {c}"
                raise ParseError(msg, row=row, column=c) from None
            if not math.isfinite(x):
                msg = f"{path}: non-finite value {f!r} at row {row}, column {c}"
                raise ParseError(msg, row=row, column=c)
        start = end
    return np.array([float(f) for f in fields], dtype=np.float64)


def _parse_rows(path: Path) -> list[np.ndarray]:
    """Tab-separated rows with the label in column 0 dropped; columns count
    from the first value. A line ends at \\n, \\r\\n or \\r, and quotes are
    not special. Trailing NaN fields, the archive's padding of short rows,
    are trimmed; any other NaN or inf is an error."""
    rows: list[np.ndarray] = []
    with path.open("r") as fh:
        for r, line in enumerate(fh):
            fields = line.rstrip("\n").split("\t")
            if len(fields) == 1 and not fields[0].strip():
                continue  # skip blank lines
            fields = fields[1:]
            while fields and fields[-1].strip().lower() == "nan":
                fields.pop()
            if not fields:
                raise ParseError(f"{path}: row {r} has no values", row=r)
            rows.append(parse_finite_fields(fields, path, [(r, len(fields))]))
    return rows


def _ucr_split(path: Path) -> tuple[str, str | None]:
    """A UCR file's dataset name, its stem without a _TRAIN/_TEST suffix (either
    case), and the split that suffix names: "train", "test", or None without one."""
    head, sep, tail = path.stem.rpartition("_")
    if sep and tail in ("TRAIN", "TEST", "train", "test"):
        return head, tail.lower()
    return path.stem, None


def load_ucr_dataset(
    train_path: str | os.PathLike, test_path: str | os.PathLike | None = None
) -> DatasetBundle:
    """Load a UCR archive TSV file pair into one bundle, named after the train
    file's stem without its _TRAIN/_TEST suffix (either case).

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
    name = _ucr_split(train_path)[0]
    return DatasetBundle._flat(name, np.concatenate(rows), np.cumsum([0, *map(len, rows)]))


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
        if not 0.0 <= level + direction * swing <= 1.0:
            direction = -direction
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
    total = sum(counts.values())
    try:
        rows = np.empty((total, length))
    except (MemoryError, ValueError):
        msg = f"synthetic corpus of {total * length} points does not fit in memory"
        raise InvalidInputError(msg) from None
    rng = np.random.default_rng(seed)
    for row, family in zip(rows, (f for f, n in counts.items() for _ in range(n))):
        row[:] = _FAMILIES[family](rng, length)
    offsets = np.arange(total + 1) * length
    return DatasetBundle._flat(name, _normalize(rows.ravel(), offsets), offsets)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _score_sampled(values: np.ndarray, offsets: np.ndarray, kept: np.ndarray,
                   params: ReconstructionParams, methods: Sequence[str], prefix: str,
                   band: bool) -> list[MethodScore]:
    """Each method's RMSE on each signal ``values[offsets[i]:offsets[i + 1]]`` sampled at the
    positions ``kept``. Each block runs each knot plan once and every kernel of that plan over
    it in turn. Every signal must reproduce its kept points exactly and, with ``band``, keep
    each skipped point strictly inside the band of ``params.threshold`` around the last kept."""
    table: dict[str, list[float]] = {m: [] for m in methods}
    by_plan: dict[Callable | None, list[str]] = {}
    for m in methods:
        by_plan.setdefault(METHODS[m][1], []).append(m)
    knots = np.searchsorted(kept, offsets)  # signal i keeps kept[knots[i]:knots[i + 1]]
    first = np.zeros(kept.size, dtype=bool)
    first[knots[:-1]] = True
    for lo, hi in signal_blocks(np.diff(offsets).tolist()):
        base, n = offsets[lo], int(offsets[hi] - offsets[lo])
        v, bounds = values[base : offsets[hi]], offsets[lo : hi + 1] - base
        runs = _runs(np.diff(bounds))
        x, f = kept[knots[lo] : knots[hi]] - base, first[knots[lo] : knots[hi]]
        y = v[x]
        if band:
            outside = np.subtract(v, Grid(x, y, n).y)
            np.abs(outside, out=outside)
            outside = outside >= params.threshold
            outside[x] = False
            if outside.any():
                i = lo + int(np.searchsorted(bounds, outside.argmax(), side="right")) - 1
                raise AssertionError(f"signal {i} has a skipped point outside the band "
                                     f"at threshold {params.threshold!r}")
            del outside
        for plan, group in by_plan.items():
            kernels = [METHODS[m][2] for m in group]
            outs = reconstruct_block(plan, kernels, x, y, f, n, params)
            for m in group:
                out = next(outs)
                off = np.flatnonzero(out[x] != y)
                if off.size:
                    i = lo + int(np.searchsorted(knots[lo:hi] - knots[lo], off[0], "right")) - 1
                    raise AssertionError(
                        f"method {m!r} failed the interpolation condition on signal {i}"
                    )
                table[m] += rmse_per_signal(v, out, bounds, runs)
                del out  # scored: free it before the next kernel runs
    return [MethodScore(prefix + METHODS[m][0], tuple(table[m])) for m in methods]


def run_experiment(bundle: DatasetBundle, config: ExperimentConfig) -> DatasetResult:
    """Sample, reconstruct and score one dataset under the configured protocol.

    Fixed-threshold mode samples event-based at ``config.threshold``.
    Budget mode tunes one threshold per dataset, then scores every method
    under both regimes with "L "/"R " name prefixes; the event-aware
    methods reuse the tuned threshold as their band parameter in both.
    """
    offsets = bundle.offsets
    values = _normalize(bundle.values, offsets)

    if config.mode is ExperimentMode.FIXED_THRESHOLD:
        threshold = config.threshold
        kept = _send_on_delta(values, offsets, threshold)
        regimes = {"": (kept, True)}
        achieved = float(np.mean(np.diff(np.searchsorted(kept, offsets)) / np.diff(offsets)))
    else:
        budget = SampleBudget(config.target_fraction)
        threshold, achieved = tune_threshold(DatasetBundle._flat(bundle.name, values, offsets),
                                             budget)
        regimes = {
            "L ": (_send_on_delta(values, offsets, threshold), True),
            "R ": (_periodic(offsets, budget), False),
        }
    params = config.make_params(threshold)
    scores = [
        score
        for prefix, (kept, band) in regimes.items()
        for score in _score_sampled(values, offsets, kept, params, config.methods, prefix, band)
    ]
    return DatasetResult(
        dataset=bundle.name,
        scores=scores,
        threshold=threshold,
        achieved_fraction=achieved,
        abruptness=mean_abruptness(bundle.values, offsets),
    )


def run_benchmark(bundles: Sequence[DatasetBundle], config: ExperimentConfig) -> MethodReport:
    """Run the experiment on each dataset, on forked workers where ``_run_datasets`` can,
    and build the one report of their rankings."""
    return _run_datasets([lambda b=b: b for b in bundles], [b.values.size for b in bundles],
                         config)


def run_ucr_archive(data_dir: str | os.PathLike, config: ExperimentConfig) -> MethodReport:
    """``run_benchmark`` over the UCR datasets of the ``*.tsv`` files under a directory tree, in
    train-path order. Before any loads, each file must be its dataset's one train or test file,
    and no two CSV names may collide; each process loads its datasets, weighed by file bytes."""
    data_dir, found = Path(data_dir), {}  # (folder, name, split) -> its files
    for path in sorted(data_dir.rglob("*.tsv")):
        found.setdefault((path.parent, *_ucr_split(path)), []).append(path)
    for (folder, name, split), paths in found.items():
        if split is None:
            raise InvalidInputError(f"{paths[0]} has no _TRAIN or _TEST suffix")
        if len(paths) > 1:
            listed = ", ".join(map(str, paths))
            raise InvalidInputError(f"one dataset has {len(paths)} {split} files: {listed}")
        if (folder, name, "train") not in found:
            raise InvalidInputError(f"{paths[0]} has no train file beside it")
    if not found:
        raise FileNotFoundError(f"no *_TRAIN.tsv files under {data_dir}")
    pairs = [(paths[0], found.get((folder, name, "test"), [None])[0])
             for (folder, name, split), paths in found.items() if split == "train"]
    _csv_names([_ucr_split(train)[0] for train, _ in pairs])
    weights = [sum(p.stat().st_size for p in pair if p is not None) for pair in pairs]
    return _run_datasets([partial(load_ucr_dataset, *pair) for pair in pairs], weights, config)


def _run_datasets(loaders: Sequence[Callable[[], DatasetBundle]], weights: Sequence[int],
                  config: ExperimentConfig) -> MethodReport:
    """The report of ``run_experiment(load(), config)`` for each loader, in loader order,
    run by ``core._fork_map`` over forked processes by ``weights`` where it can: each
    process loads and holds only its own datasets, and a run that fails raises what the
    in-order run raises."""
    jobs = [lambda load=load: run_experiment(load(), config) for load in loaders]
    return aggregate_report(_fork_map(jobs, weights), config=config.echo())


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _json_text(obj, pad: str = "") -> str:
    """JSON with floats at 17 significant digits and insertion-order fields.

    The stdlib encoder prints floats via repr (shortest round trip); this
    fixed-width form keeps the serialized bytes independent of repr details
    while still parsing back to the identical float64. A numpy scalar is
    written as its Python value.
    """
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InvalidInputError(f"cannot serialize non-finite number {obj}")
        return _fmt(obj)
    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return json.dumps(obj)  # None, bool, int, str, and empty containers
    inner, (start, end) = pad + "  ", "{}" if isinstance(obj, dict) else "[]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {_json_text(v, inner)}" for k, v in obj.items()]
    else:
        items = [_json_text(v, inner) for v in obj]
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{end}"


def _csv_names(datasets: Sequence[str]) -> list[str]:
    """Each dataset's ``<dataset>_rmse.csv`` file name, every character but a letter, digit,
    ``-`` or ``_`` made ``_``; two datasets whose names would collide raise."""
    seen: dict[str, str] = {}  # file name -> dataset
    for d in datasets:
        name = "".join(c if c.isalnum() or c in "-_" else "_" for c in d) + "_rmse.csv"
        if name in seen:
            raise InvalidInputError(f"datasets {seen[name]!r} and {d!r} would both write {name}")
        seen[name] = d
    return list(seen)


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
    files: dict[str, list[list]] = {}  # CSV file name -> rows
    for name, d in zip(_csv_names([d.dataset for d in report.datasets]), report.datasets):
        files[name] = [["dataset", *methods],
                       [d.dataset, *(_fmt(d.score_for(m).mean_rmse) for m in methods)]]

    payload = {
        "config": dict(report.config) if report.config else None,
        "datasets": [
            {
                "dataset": d.dataset,
                "threshold": d.threshold,
                "achieved_fraction": d.achieved_fraction,
                "abruptness": d.abruptness,
                "scores": [
                    {"method": s.method_name, "mean_rmse": s.mean_rmse,
                     "median_rmse": s.median_rmse, "rank": rank}
                    for rank, s in enumerate(d.scores, 1)
                ],
            }
            for d in report.datasets
        ],
        "summary": [
            {"method": s.method_name, "mean_rmse": s.mean_rmse, "mean_rank": s.mean_rank,
             "wins": s.wins}
            for s in report.summary
        ],
    }
    text = _json_text(payload) + "\n"

    files["summary.csv"] = [["method", "mean_rmse", "mean_rank", "wins"]] + [
        [s.method_name, _fmt(s.mean_rmse), _fmt(s.mean_rank), s.wins] for s in report.summary
    ]
    files["boxplot_long.csv"] = [["dataset", "method", "rmse", "rank"]] + [
        [d.dataset, m, _fmt(d.score_for(m).mean_rmse), d.rank_of(m)]
        for d in report.datasets
        for m in methods
    ]
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in files.items():
        with (out / name).open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    (out / "report.json").write_text(text)
    return [out / name for name in [*files, "report.json"]]
