"""Scoring and aggregation: RMSE, abruptness, ranking, cross-dataset report."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import TimeSeries
from .errors import InvalidInputError, ShapeError

__all__ = [
    "MethodScore",
    "MethodSummary",
    "DatasetResult",
    "MethodReport",
    "rmse",
    "abruptness",
    "rank_methods",
    "aggregate_report",
]


def rmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Root of the mean squared pointwise difference of two equal-length arrays."""
    n, m = original.size, reconstructed.size
    if n != m:
        raise ShapeError(f"length mismatch: original {n} vs reconstruction {m}")
    return rmse_per_signal(original, reconstructed, (0, n))[0]


def rmse_per_signal(
    original: np.ndarray, reconstructed: np.ndarray, bounds: Sequence[int]
) -> list[float]:
    """The RMSE of each signal of a block, signal i being [bounds[i], bounds[i + 1])."""
    sq = (original - reconstructed) ** 2
    # np.mean of each slice, spelled as the sum and division it performs
    means = [np.add.reduce(sq[a:b]) / (b - a) for a, b in zip(bounds[:-1], bounds[1:])]
    return np.sqrt(means).tolist()


def abruptness(series: TimeSeries) -> float:
    """Population standard deviation of the first differences.

    Low values mean a smooth signal; a straight ramp scores exactly 0.
    """
    if len(series) < 2:
        raise InvalidInputError("abruptness needs at least two points")
    return float(np.std(np.diff(series.values)))


@dataclass(frozen=True)
class MethodScore:
    """Per-dataset scores for one method; the mean and median derive from
    the per-signal RMSEs."""

    method_name: str
    per_signal_rmse: tuple[float, ...]
    rank_position: int | None = None

    def __post_init__(self):
        if not self.per_signal_rmse:
            raise InvalidInputError(f"method {self.method_name!r} has no scores")

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.per_signal_rmse))

    @property
    def median_rmse(self) -> float:
        return float(np.median(self.per_signal_rmse))


def rank_methods(scores: Sequence[MethodScore]) -> list[MethodScore]:
    """Rank by mean RMSE ascending; exact ties go to the earlier name.

    Every method must score the same signal set (checked by count).
    """
    if not scores:
        raise InvalidInputError("cannot rank an empty score list")
    counts = {len(s.per_signal_rmse) for s in scores}
    if len(counts) > 1:
        raise InvalidInputError(f"score lists cover different signal counts: {sorted(counts)}")
    ordered = sorted(scores, key=lambda s: (s.mean_rmse, s.method_name))
    return [replace(s, rank_position=i + 1) for i, s in enumerate(ordered)]


@dataclass(frozen=True)
class DatasetResult:
    """Ranked method scores for one dataset plus the sampling context.

    ``abruptness`` is the mean first-difference SD of the raw signals,
    reported for context (its reference aggregation is not pinned down, so
    nothing asserts against it).
    """

    dataset: str
    scores: tuple[MethodScore, ...]
    threshold: float | None = None
    achieved_fraction: float | None = None
    abruptness: float | None = None

    def __post_init__(self):
        if not self.scores:
            raise InvalidInputError(f"dataset {self.dataset!r} has no scores")
        object.__setattr__(self, "scores", tuple(self.scores))

    def score_for(self, method_name: str) -> MethodScore:
        for s in self.scores:
            if s.method_name == method_name:
                return s
        raise KeyError(method_name)


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

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "summary", tuple(self.summary))

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
    if any(s.rank_position is None for d in per_dataset for s in d.scores):
        raise InvalidInputError("scores must be ranked before aggregation")

    summaries = []
    for name in sorted(method_sets[0]):
        means = [d.score_for(name).mean_rmse for d in per_dataset]
        ranks = [d.score_for(name).rank_position for d in per_dataset]
        summaries.append(
            MethodSummary(
                method_name=name,
                mean_rmse=float(np.mean(means)),
                mean_rank=float(np.mean(ranks)),
                wins=sum(1 for r in ranks if r == 1),
            )
        )
    summaries.sort(key=lambda s: (s.mean_rmse, s.method_name))
    return MethodReport(datasets=tuple(per_dataset), summary=tuple(summaries), config=config)
