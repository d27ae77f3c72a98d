"""Event-based (send-on-delta) and periodic sampling, plus budget tuning.

The event-based sampler captures a point exactly when its absolute distance
from the last captured value reaches the threshold; the periodic sampler
spreads a fixed count of points evenly over the index range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DatasetBundle, SampledSeries, TimeSeries
from .errors import InfeasibleBudgetError, InvalidInputError

__all__ = [
    "SampleBudget",
    "lebesgue_sample",
    "riemann_sample",
    "tune_threshold",
    "threshold_candidates",
]


@dataclass(frozen=True)
class SampleBudget:
    """Target share of points to retain, in (0, 1]."""

    target_fraction: float

    def __post_init__(self):
        if not (0.0 < self.target_fraction <= 1.0):
            raise InvalidInputError(
                f"target_fraction must be in (0, 1], got {self.target_fraction}"
            )


def lebesgue_sample(series: TimeSeries, threshold: float) -> SampledSeries:
    """Send-on-delta sampling: keep a point iff it moved >= threshold.

    The first point is always kept. The comparison is against the last
    *kept* value, so every skipped point provably stays strictly inside the
    tolerated band around it. The final point is not force-captured.
    """
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise InvalidInputError(f"threshold must be finite and >= 0, got {threshold}")
    values = series.values.tolist()
    idx = [0]
    kept = [values[0]]
    ref = values[0]
    for i in range(1, len(values)):
        v = values[i]
        if abs(v - ref) >= threshold:
            idx.append(i)
            kept.append(v)
            ref = v
    return SampledSeries(
        indices=np.asarray(idx, dtype=np.int64),
        values=np.asarray(kept, dtype=np.float64),
        source_length=len(values),
        threshold=threshold,
    )


def riemann_sample(series: TimeSeries, budget: SampleBudget) -> SampledSeries:
    """Periodic sampling: k = max(1, ceil(fraction * n)) evenly spread points.

    Indices are round(j * (n-1) / (k-1)) for j = 0..k-1 (half-to-even, like
    numpy), deduplicated ascending; both endpoints are included when k >= 2.
    """
    n = len(series)
    k = max(1, math.ceil(budget.target_fraction * n))
    if k == 1:
        idx = np.zeros(1, dtype=np.int64)
    else:
        raw = np.rint(np.arange(k, dtype=np.float64) * (n - 1) / (k - 1)).astype(np.int64)
        idx = np.unique(raw)
    return SampledSeries(
        indices=idx,
        values=series.values[idx],
        source_length=n,
        threshold=0.0,
    )


def threshold_candidates(bundle: DatasetBundle) -> np.ndarray:
    """Sorted grid {0} plus every pairwise absolute value difference.

    The retained-count of the send-on-delta sampler is a step function of
    the threshold whose breakpoints all lie at |y_j - y_i| for some pair of
    raw values (each firing compares the current value against an earlier
    one), so this grid covers every point where the achieved fraction can
    change. Differences between *adjacent* points alone would miss
    breakpoints (e.g. a pure ramp fires on cumulative, not step, distance).
    """
    parts = [np.zeros(1)]
    for ts in bundle.signals:
        u = np.unique(ts.values)
        d = np.abs(u[:, None] - u[None, :]).ravel()
        parts.append(d[d > 0.0])
    return np.unique(np.concatenate(parts))


def _bundle_fraction(bundle: DatasetBundle, threshold: float) -> float:
    """Mean over signals of retained-count / length at one threshold."""
    total = 0.0
    for ts in bundle.signals:
        total += lebesgue_sample(ts, threshold).fraction
    return total / len(bundle.signals)


def tune_threshold(bundle: DatasetBundle, budget: SampleBudget) -> tuple[float, float]:
    """Find the threshold that spends the budget without exceeding it.

    Searches the finite candidate grid by binary search for the smallest
    threshold whose mean retained fraction is <= the target, then walks left
    while the next-smaller candidate is also feasible. The walk matters
    because the retained count is not globally monotone in the threshold
    (a larger threshold can delay a capture and set up extra later ones),
    so bisection alone can land past a locally feasible candidate. The
    result is feasible and its immediate predecessor on the grid is not.

    When even the largest candidate keeps too many points, the next float
    above it is tried: it exceeds every difference, so nothing fires after
    each signal's first point, which is the least any threshold keeps.

    Returns (threshold, achieved_fraction). Raises InfeasibleBudgetError if
    even that threshold keeps too many points.
    """
    target = budget.target_fraction
    cands = threshold_candidates(bundle)
    cache: dict[int, float] = {}

    def frac(i: int) -> float:
        if i not in cache:
            cache[i] = _bundle_fraction(bundle, float(cands[i]))
        return cache[i]

    last = len(cands) - 1
    if frac(last) > target:
        above = float(np.nextafter(cands[last], np.inf))
        least = _bundle_fraction(bundle, above)
        if least > target:
            raise InfeasibleBudgetError(
                f"budget {target} infeasible: minimum achievable fraction is {least:.6g}",
                min_achievable_fraction=least,
            )
        return above, least
    lo, hi = 0, last
    while lo < hi:
        mid = (lo + hi) // 2
        if frac(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    while lo > 0 and frac(lo - 1) <= target:
        lo -= 1
    return float(cands[lo]), frac(lo)
