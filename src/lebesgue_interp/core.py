"""Shared domain types and per-signal normalization.

The time axis is always the integer sample index 0..n-1; values are float64.
All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError

__all__ = [
    "TimeSeries",
    "SampledSeries",
    "ReconstructionParams",
    "DatasetBundle",
    "normalize_unit_interval",
]


def _as_signal_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInputError(f"{what} must contain at least one value")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise InvalidInputError(f"{what} contains a non-finite value at position {bad}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One signal: a finite float sequence indexed by 0..n-1."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_signal_array(self.values, "signal"))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class SampledSeries:
    """Ordered retained points plus the context needed to reconstruct.

    Indices are strictly increasing, start at 0 and stay below
    ``source_length``; ``threshold`` records the sampling threshold
    (0.0 for periodic sampling, which has none).
    """

    indices: np.ndarray
    values: np.ndarray
    source_length: int
    threshold: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).copy()
        vals = _as_signal_array(self.values, "sampled values")
        if idx.ndim != 1 or idx.size != vals.size:
            raise ShapeError(
                f"indices and values must be equal-length 1-d arrays, got {idx.shape} vs {vals.shape}"
            )
        if idx.size == 0:
            raise InvalidInputError("a sampled series needs at least one point")
        if idx[0] != 0:
            raise InvalidInputError(f"first sampled index must be 0, got {int(idx[0])}")
        if np.any(np.diff(idx) <= 0):
            raise InvalidInputError("sampled indices must be strictly increasing")
        if int(idx[-1]) >= self.source_length:
            raise InvalidInputError(
                f"sampled index {int(idx[-1])} out of range for source length {self.source_length}"
            )
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise InvalidInputError(f"threshold must be finite and >= 0, got {self.threshold}")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def fraction(self) -> float:
        """Share of the original points that were retained."""
        return len(self) / self.source_length


@dataclass(frozen=True)
class ReconstructionParams:
    """Knobs for the event-aware reconstructors.

    ``tolerance_ratio`` scales the threshold into the smooth/abrupt decision
    band; the three distances gate the slope-reversal (convex/concave) knot
    insertion. ``subsequent_max_distance=None`` means unbounded.
    """

    threshold: float
    tolerance_ratio: float = 1.15
    previous_distance: int = 3
    subsequent_min_distance: int = 3
    subsequent_max_distance: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise InvalidInputError(f"threshold must be finite and >= 0, got {self.threshold}")
        if math.isnan(self.tolerance_ratio) or self.tolerance_ratio < 1.0:
            raise InvalidInputError(f"tolerance_ratio must be >= 1, got {self.tolerance_ratio}")
        for name in ("previous_distance", "subsequent_min_distance"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.subsequent_max_distance is not None and self.subsequent_max_distance < 0:
            raise InvalidInputError(
                f"subsequent_max_distance must be >= 0 or None, got {self.subsequent_max_distance}"
            )

    @property
    def tolerance(self) -> float:
        # An infinite ratio means "every interval is smooth", even at threshold 0.
        if math.isinf(self.tolerance_ratio):
            return math.inf
        return self.threshold * self.tolerance_ratio


@dataclass(frozen=True, eq=False)
class DatasetBundle:
    """A named collection of signals."""

    name: str
    signals: tuple[TimeSeries, ...]

    def __post_init__(self):
        signals = tuple(self.signals)
        if not signals:
            raise InvalidInputError(f"dataset {self.name!r} is empty")
        object.__setattr__(self, "signals", signals)

    def __len__(self) -> int:
        return len(self.signals)


def normalize_unit_interval(series: TimeSeries) -> TimeSeries:
    """Affinely rescale one signal so min -> 0 and max -> 1.

    A constant signal maps to all zeros rather than erroring, so every
    signal stays usable downstream. When hi - lo overflows float64 every
    term is halved first, which is exact outside the subnormal range.
    """
    v = series.values
    lo = float(v.min())
    hi = float(v.max())
    if hi == lo:
        return TimeSeries(np.zeros_like(v))
    if math.isinf(hi - lo):
        v, lo, hi = v / 2.0, lo / 2.0, hi / 2.0
    return TimeSeries((v - lo) / (hi - lo))
