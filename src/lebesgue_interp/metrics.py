"""Scoring and aggregation: RMSE, abruptness, ranking, cross-dataset report.
``rmse`` and ``abruptness`` take raw values and retry what overflows float64
(``_overflow_safe``); the scorer's ``rmse_per_signal`` takes [0, 1] values and has none."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import InvalidInputError, TimeSeries, _runs

__all__ = [
    "MethodScore",
    "MethodSummary",
    "DatasetResult",
    "MethodReport",
    "rmse",
    "abruptness",
    "aggregate_report",
]

# Grid points per block of signals the scorer reconstructs, or mean_abruptness stacks, at once.
BLOCK_POINTS = 12288


def rmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Root of the mean squared pointwise difference of two equal-length arrays."""
    n, m = original.size, reconstructed.size
    if n != m:
        raise InvalidInputError(f"length mismatch: original {n} vs reconstruction {m}")
    if n == 0:
        raise InvalidInputError("rmse of two empty arrays is undefined")
    return _overflow_safe(lambda o, r: rmse_per_signal(o, r, (0, n))[0], original, reconstructed)


def rmse_per_signal(
    original: np.ndarray,
    reconstructed: np.ndarray,
    bounds: Sequence[int],
    runs: Sequence[tuple[int, int]] | None = None,
) -> list[float]:
    """The RMSE of each signal of a block, signal i being [bounds[i], bounds[i + 1]), each run of
    equal-length signals reduced as the rows of one 2-D array; no overflow retry ([0, 1] values).
    ``runs`` are those runs, ``core._runs(np.diff(bounds))``, when the caller has them."""
    lengths = np.diff(bounds)
    sq = np.subtract(original, reconstructed)
    np.square(sq, out=sq)
    means = np.empty(lengths.size)
    for lo, hi in _runs(lengths) if runs is None else runs:
        rows = sq[bounds[lo] : bounds[hi]].reshape(hi - lo, lengths[lo])
        means[lo:hi] = np.add.reduce(rows, axis=1) / lengths[lo]  # np.mean's own sum and division
    return np.sqrt(means).tolist()


def signal_blocks(lengths: Sequence[int]):
    """[lo, hi) runs of consecutive signals with at most BLOCK_POINTS points in all."""
    lo = total = 0
    for i, n in enumerate(lengths):
        if total + n > BLOCK_POINTS and i > lo:
            yield lo, i
            lo, total = i, 0
        total += n
    yield lo, len(lengths)


def abruptness(series: TimeSeries) -> float:
    """Population standard deviation of the first differences.

    Low values mean a smooth signal; a straight ramp scores exactly 0.
    The result is ``inf`` only when the true value exceeds the float64 range.
    """
    if len(series) < 2:
        raise InvalidInputError("abruptness needs at least two points")
    return _overflow_safe(lambda v: np.std(np.diff(v)), series.values)


def mean_abruptness(values: np.ndarray, offsets: np.ndarray) -> float | None:
    """Mean abruptness of the signals ``values[offsets[i]:offsets[i + 1]]``; None when one has
    fewer than two points or the mean exceeds the float64 range. Equal-length runs are reduced
    as rows of a reshaped slice of at most BLOCK_POINTS points; a row that overflows, alone."""
    lengths = np.diff(offsets)
    if (lengths < 2).any():
        return None
    sd = np.empty(lengths.size)
    for lo, hi in _runs(lengths):
        step = max(1, BLOCK_POINTS // int(lengths[lo]))  # rows of at most a block, or one row
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            rows = values[offsets[a] : offsets[b]].reshape(b - a, lengths[lo])
            with np.errstate(over="ignore", invalid="ignore"):
                sd[a:b] = np.std(np.diff(rows, axis=1), axis=1)
    for i in np.flatnonzero(~np.isfinite(sd)):
        sd[i] = abruptness(TimeSeries._of(values[offsets[i] : offsets[i + 1]]))
    mean = _overflow_safe(np.mean, sd)
    return mean if math.isfinite(mean) else None


def _overflow_safe(stat, *arrays: np.ndarray) -> float:
    """``stat(*arrays)`` for a statistic that scales with its inputs. When an
    intermediate overflows, it runs again on the arrays scaled by 2**-e, the
    largest magnitude's exponent, and is scaled back. A finite first result
    is kept as it is."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = stat(*arrays)
        if not np.isfinite(out):
            e = int(np.frexp(max(np.max(np.abs(a)) for a in arrays))[1])
            out = np.ldexp(stat(*(np.ldexp(a, -e) for a in arrays)), e)
    return float(out)


@dataclass(frozen=True)
class MethodScore:
    """Per-dataset scores for one method; the mean and median derive from
    the per-signal RMSEs, each computed on its first read."""

    method_name: str
    per_signal_rmse: tuple[float, ...]

    def __post_init__(self):
        if not self.per_signal_rmse:
            raise InvalidInputError(f"method {self.method_name!r} has no scores")

    @cached_property
    def mean_rmse(self) -> float:
        return float(np.mean(self.per_signal_rmse))

    @cached_property
    def median_rmse(self) -> float:
        # the middle value, or the mean of the two, as np.median takes it (which would load
        # numpy.ma); a NaN, which sorted() could put anywhere, makes it NaN there too
        s, k = sorted(self.per_signal_rmse), len(self.per_signal_rmse) // 2
        if any(map(math.isnan, s)):
            return math.nan
        return float(s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2.0)


@dataclass(frozen=True)
class DatasetResult:
    """Method scores for one dataset in rank order (by mean RMSE, exact ties to the earlier
    name; a method's rank is its 1-based position), all over one signal count, plus the
    sampling context.

    ``abruptness`` is the mean first-difference SD of the raw signals, or
    None (see ``mean_abruptness``), reported for context (its reference
    aggregation is not pinned down, so nothing asserts against it).
    """

    dataset: str
    scores: tuple[MethodScore, ...]
    threshold: float | None = None
    achieved_fraction: float | None = None
    abruptness: float | None = None

    def __post_init__(self):
        if not self.scores:
            raise InvalidInputError(f"dataset {self.dataset!r} has no scores")
        counts = {len(s.per_signal_rmse) for s in self.scores}
        if len(counts) > 1:
            raise InvalidInputError(f"score lists cover different signal counts: {sorted(counts)}")
        ranked = sorted(self.scores, key=lambda s: (s.mean_rmse, s.method_name))
        object.__setattr__(self, "scores", tuple(ranked))

    def rank_of(self, method_name: str) -> int:
        for i, s in enumerate(self.scores, 1):
            if s.method_name == method_name:
                return i
        raise KeyError(method_name)

    def score_for(self, method_name: str) -> MethodScore:
        return self.scores[self.rank_of(method_name) - 1]


@dataclass(frozen=True)
class MethodSummary:
    """Cross-dataset aggregates for one method."""

    method_name: str
    mean_rmse: float
    mean_rank: float
    wins: int


@dataclass(frozen=True)
class MethodReport:
    """Per-dataset results plus the cross-dataset summary."""

    datasets: tuple[DatasetResult, ...]
    summary: tuple[MethodSummary, ...]
    config: Mapping[str, object] | None = None

    @property
    def method_names(self) -> tuple[str, ...]:
        return tuple(s.method_name for s in self.summary)


def aggregate_report(
    per_dataset: Sequence[DatasetResult],
    config: Mapping[str, object] | None = None,
) -> MethodReport:
    """Merge per-dataset rankings into one report.

    Summary rows carry the mean of per-dataset mean RMSEs, the mean rank
    position, and the number of rank-1 finishes; they are ordered by mean
    RMSE with name as the deterministic tie-break.
    """
    if not per_dataset:
        raise InvalidInputError("no dataset results to aggregate")
    method_sets = [frozenset(s.method_name for s in d.scores) for d in per_dataset]
    if any(ms != method_sets[0] for ms in method_sets):
        raise InvalidInputError("datasets report inconsistent method sets")

    summaries = []
    for name in sorted(method_sets[0]):
        means = [d.score_for(name).mean_rmse for d in per_dataset]
        ranks = [d.rank_of(name) for d in per_dataset]
        summaries.append(MethodSummary(name, mean_rmse=float(np.mean(means)),
                                       mean_rank=float(np.mean(ranks)), wins=ranks.count(1)))
    summaries.sort(key=lambda s: (s.mean_rmse, s.method_name))
    return MethodReport(datasets=tuple(per_dataset), summary=tuple(summaries), config=config)
