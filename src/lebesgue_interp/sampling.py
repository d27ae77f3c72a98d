"""Event-based (send-on-delta) and periodic sampling, plus budget tuning.

The event-based sampler captures a point exactly when its absolute distance
from the last captured value reaches the threshold; the periodic sampler
spreads a fixed count of points evenly over the index range.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (DatasetBundle, InfeasibleBudgetError, InvalidInputError, SampledSeries,
                   TimeSeries, _check_threshold, _fork_map, _fork_procs, _runs)

__all__ = [
    "SampleBudget",
    "lebesgue_sample",
    "riemann_sample",
    "tune_threshold",
]

# Budget tuning reads its candidate grid in value buckets of at most this many
# pairs. Each process of the grid pass holds one such bucket, and a probe holds
# the slice between two marks of one. No other part of the grid is ever in memory.
_BUCKET_PAIRS = 2**18
# The pass marks each sorted bucket at every this many positions, or more where
# the grid has over 2**16 times as many pairs, so it keeps at most 2**16 marks
# plus one per bucket.
_MARK_PAIRS = 2**12
# Runs of at least this many consecutive equal-length signals are sampled in lockstep, one numpy
# step per time index across the run; below it, the per-point loop is faster (it breaks even at
# 24-28 signals of 1000 points, one core of a 2-vCPU Xeon).
_LOCKSTEP = 32


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
    x = _send_on_delta(series.values, np.array([0, len(series)]), threshold)
    return SampledSeries(x, series.values[x], source_length=len(series), threshold=threshold)


def _send_on_delta(values: np.ndarray, offsets: np.ndarray, threshold: float) -> np.ndarray:
    """``lebesgue_sample`` of every signal ``values[offsets[i]:offsets[i + 1]]``: the kept
    positions in ``values``, in one buffer. A run of at least ``_LOCKSTEP`` equal-length signals
    is sampled in lockstep (``_fires``) and copied in whole; every other signal appends from one
    loop that restarts at each of their offsets."""
    _check_threshold(threshold)
    kept = array("q")
    for a, signal in _by_run(values, offsets):
        if isinstance(signal, np.ndarray):
            run = np.flatnonzero(_fires(signal, threshold).T)
            run += a
            kept.frombytes(run.view(np.uint8))
            continue
        ref = signal[0]
        kept.append(a)
        for i, v in enumerate(signal[1:], a + 1):
            if abs(v - ref) >= threshold:
                kept.append(i)
                ref = v
    return np.frombuffer(kept, dtype=np.int64)


def _by_run(values: np.ndarray, offsets: np.ndarray):
    """The signals ``values[offsets[i]:offsets[i + 1]]`` in order, each with its first
    position: a run of at least ``_LOCKSTEP`` consecutive equal-length signals
    (``core._runs``) as the rows of one 2-D view, and every other signal alone as a list of
    floats, made as it is reached (a list costs 4 floats per value)."""
    lengths = np.diff(offsets)
    for lo, hi in _runs(lengths):
        if hi - lo >= _LOCKSTEP:
            a = int(offsets[lo])
            yield a, values[a : int(offsets[hi])].reshape(hi - lo, int(lengths[lo]))
        else:
            for a, b in zip(offsets[lo:hi].tolist(), offsets[lo + 1 : hi + 1].tolist()):
                yield a, values[a:b].tolist()


def _fires(rows: np.ndarray, threshold: float) -> np.ndarray:
    """Send-on-delta over the rows of a 2-D array in lockstep, one time index at a time across
    all rows: where each row keeps a point, one bool per value, time-major (the transpose of
    ``rows``' shape). Each value sees the same IEEE operations as ``abs(v - ref) >= threshold``,
    where ``v - ref`` may round to inf."""
    fires = np.empty(rows.shape[::-1], dtype=bool)
    fires[0] = True
    ref = rows[:, 0].copy()
    d = np.empty_like(ref)
    with np.errstate(over="ignore"):
        for col, fired in zip(rows.T[1:], fires[1:]):
            np.subtract(col, ref, out=d)
            np.abs(d, out=d)
            np.greater_equal(d, threshold, out=fired)
            np.copyto(ref, col, where=fired)
    return fires


def riemann_sample(series: TimeSeries, budget: SampleBudget) -> SampledSeries:
    """Periodic sampling: k = max(1, ceil(fraction * n)) evenly spread points.

    Indices are round(j * (n-1) / (k-1)) for j = 0..k-1 (half-to-even, like
    numpy), strictly ascending; both endpoints are included when k >= 2.
    """
    x = _periodic(np.array([0, len(series)]), budget)
    return SampledSeries(x, series.values[x], source_length=len(series), threshold=0.0)


def _periodic(offsets: np.ndarray, budget: SampleBudget) -> np.ndarray:
    """``riemann_sample`` of every signal [offsets[i], offsets[i + 1]): the kept positions,
    in one pass. None repeats: k <= n, so the step (n-1)/(k-1) is 1 or >= 1 + 1/(k-1)."""
    n = np.diff(offsets)
    k = np.maximum(1, np.ceil(budget.target_fraction * n)).astype(np.int64)
    j = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)  # each point's rank in its signal
    x = np.rint(j * np.repeat(n - 1.0, k) / np.repeat(np.maximum(1, k - 1), k))
    return x.astype(np.int64) + np.repeat(offsets[:-1], k)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty sorted array, in order: each one
    that differs from its left neighbour. ``np.unique`` gives the same values
    but loads ``numpy.ma`` on its first call in a process."""
    return a[_new(a)]


def _new(a: np.ndarray) -> np.ndarray:
    """Where a non-empty sorted array holds a value its left neighbour does not."""
    return np.append(True, a[1:] != a[:-1])


def threshold_candidates(bundle: DatasetBundle) -> np.ndarray:
    """Sorted grid {0} plus every pairwise absolute value difference.

    The retained-count of the send-on-delta sampler is a step function of
    the threshold whose breakpoints all lie at |y_j - y_i| for some pair of
    raw values (each firing compares the current value against an earlier
    one), so this grid covers every point where the achieved fraction can
    change. Differences between *adjacent* points alone would miss
    breakpoints (e.g. a pure ramp fires on cumulative, not step, distance).

    Each signal's sorted unique values ``u`` give every unordered pair once
    as a lag difference ``u[k:] - u[:-k]``, always positive: rounding is
    symmetric, so ``a - b`` and ``|b - a|`` are the same float.
    """
    parts = [np.zeros(1)]
    for ts in bundle.signals:
        u = np.unique(ts.values)
        parts.extend(u[k:] - u[:-k] for k in range(1, u.size))
    return np.unique(np.concatenate(parts))


def _kept_fraction(signals: list, threshold: float) -> float:
    """Mean over signals of kept count / length at one threshold, summed in signal order, from
    kept counts alone. Each item of ``signals`` is what ``_by_run`` yields: one signal as a list
    of floats, which a count-only loop samples, or a run of signals as the rows of a 2-D array,
    which ``_fires`` samples in lockstep. Storing no position, the loop runs about twice as fast
    as ``_send_on_delta``'s (0.9 against 1.7 ms per evaluation on 20 walks of 1000 points, one
    core of a 2-vCPU Xeon), so the lockstep's counts overtake it only from about 50 signals (2.4
    against 1.5 ms on 32 such walks)."""
    _check_threshold(threshold)
    total, count = 0.0, 0
    for values in signals:
        if isinstance(values, np.ndarray):
            for kept in _fires(values, threshold).sum(axis=0).tolist():
                total += kept / values.shape[1]
            count += values.shape[0]
            continue
        ref = values[0]
        kept = 1
        for v in values[1:]:
            if abs(v - ref) >= threshold:
                kept += 1
                ref = v
        total += kept / len(values)
        count += 1
    return total / count


class _DifferenceGrid:
    """``threshold_candidates(bundle)`` read by rank, never built whole.

    With each signal's distinct values in one array ``u`` (sorted, then each
    kept where it differs from its left neighbour; ``threshold_candidates``
    keeps ``np.unique`` as the independent reference), the computed
    difference ``u[j] - u[i]`` of a signal's pair i < j is non-decreasing in
    j, so the pairs whose difference lies in a value interval (a, b] form one
    contiguous j-range per i. One pass cuts (0, largest difference] into
    buckets of at most ``_BUCKET_PAIRS`` pairs. A piece is left with more
    pairs than that only when all of them equal its upper edge b, and it is
    the one-value bucket ``[b]``. Every bucket is gathered into one buffer,
    sorted in place and summarised by its marks: its value at every s-th
    sorted position and at its end, with the grid rank of each, where s is
    ``_MARK_PAIRS`` or pairs / 2**16 if that is more.

    The pass is split by value range: the first cut's edges, spaced by pair
    count, are cut into contiguous runs, one per usable CPU at most
    (``core._fork_procs``), and ``core._fork_map`` shares the runs out, each
    weighed by its edge count, so each process passes its run alone
    (``_pass``). A run without a result is passed again here, in order, so an
    error raises as in the one-process pass. A rank between two marks then
    rebuilds the pairs between them, one slice of at most about s pairs plus
    the copies of its upper mark, on this process, so memory is
    O(n + _BUCKET_PAIRS + 2**16) per process for n values, against O(N) for
    the whole grid of N pairs.
    """

    def __init__(self, bundle: DatasetBundle):
        parts = [_distinct(np.sort(v)) for v in np.split(bundle.values, bundle.offsets[1:-1])]
        spans = [float(p[-1]) - float(p[0]) for p in parts]  # Python floats overflow quietly
        if math.isinf(max(spans)):
            raise InvalidInputError(f"dataset {bundle.name!r}: the values of signal "
                                    f"{spans.index(math.inf)} span more than float64; normalize first")
        sizes = np.array([p.size for p in parts])
        starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
        self._parts, self._starts = parts, starts
        self._u = np.concatenate(parts)
        self._first = np.arange(1, self._u.size + 1)  # i's pairs run over [i + 1, end)
        self._end = starts + np.repeat(sizes, sizes)
        self._pairs = int(np.sum(self._end - self._first))
        top = max(spans)  # rounding is monotone, so no pair's difference exceeds it
        edges = [*(self._cuts(self._first, self._end, self._pairs, top)
                   if self._pairs > _BUCKET_PAIRS else []), top]
        procs = _fork_procs(len(edges))
        runs = [edges[p * len(edges) // procs:(p + 1) * len(edges) // procs] for p in range(procs)]
        lows = [0.0, *(run[-1] for run in runs[:-1])]  # each run's lower edge
        passes = [partial(self._pass, a, run) for a, run in zip(lows, runs)]
        tops, counts = zip(*_fork_map(passes, list(map(len, runs))))
        # tops[k] is the value of mark k and ranks[k] its rank; 0.0 is rank 0
        self._tops = np.concatenate([[0.0], *tops])
        self._ranks = np.cumsum(np.concatenate([[0], *counts]))
        self._cached: tuple[int, np.ndarray] | None = None

    def __len__(self) -> int:
        return int(self._ranks[-1]) + 1

    def __getitem__(self, rank: int) -> float:
        k = int(np.searchsorted(self._ranks, rank))
        if self._ranks[k] == rank:
            return float(self._tops[k])
        if self._cached is None or self._cached[0] != k:
            a, b = float(self._tops[k - 1]), float(self._tops[k])
            self._cached = None  # free the old slice before building the new one
            lo, hi = self._ends(a), self._ends(b)
            d = self._gather(lo, hi, np.empty(int(np.sum(hi - lo))))
            d.sort()
            self._cached = k, _distinct(d)
        return float(self._cached[1][rank - self._ranks[k - 1] - 1])

    def _pass(self, a: float, edges: list[float]) -> tuple[np.ndarray, np.ndarray]:
        """The marks of the grid's values in (a, edges[-1]], cut first at ``edges``
        (ascending): each mark's value and the count of distinct values since the
        mark before it, which ``__init__`` sums into ranks."""
        buf = np.empty(min(_BUCKET_PAIRS, self._pairs))
        every = max(_MARK_PAIRS, -(-self._pairs // 2**16))
        tops, counts = [np.empty(0)], [np.empty(0, dtype=np.int64)]
        for lo, hi, count, b in self._pieces(a, edges):
            # a piece of more pairs than a bucket holds has all of them equal b
            d = self._gather(lo, hi, buf[:count]) if count <= _BUCKET_PAIRS else np.array([b])
            d.sort()
            at = np.arange(0, d.size, every)  # where each mark's stretch of d starts
            tops.append(d[np.minimum(at + every, d.size) - 1])
            counts.append(np.add.reduceat(_new(d), at, dtype=np.int64))
        return np.concatenate(tops), np.concatenate(counts)

    def _pieces(self, a: float, edges: list[float]):
        """Cut (a, edges[-1]] at ``edges`` (ascending), and each piece again into
        pieces of at most ``_BUCKET_PAIRS`` pairs, or of one value, in ascending
        order; yield each non-empty one as the pairs i, [lo[i], hi[i]), their
        count and the piece's upper edge b."""
        lo = self._first if a == 0.0 else self._ends(a)
        todo = edges[::-1]  # upper edges; the next on top
        while todo:
            b = todo[-1]
            hi = self._ends(b)
            count = int(np.sum(hi - lo))
            if count > _BUCKET_PAIRS:
                cuts = self._cuts(lo, hi, count, b)
                below = float(np.nextafter(b, -np.inf))
                if cuts or below > a:
                    todo.extend(reversed(cuts or [below]))
                    continue
            if count:
                yield lo, hi, count, b
            todo.pop()
            a, lo = b, hi

    def _ends(self, b: float) -> np.ndarray:
        """For each i, the first j of its signal with ``u[j] - u[i] > b``,
        or the signal's end.

        ``searchsorted`` on ``u[i] + b`` finds it up to rounding, which can
        miss by many values where the sum cancels. Rows where the computed
        difference disagrees bisect their whole j-range on it instead.
        """
        u, end = self._u, self._end
        with np.errstate(over="ignore"):  # p + b past float max: the row ends at its signal's end
            at = np.concatenate([np.searchsorted(p, p + b, "right") for p in self._parts])
        at += self._starts
        # at >= i + 1 as p + b >= p, so u[at - 1] - u is 0 at i + 1, and no threshold is below 0
        ok = (u[at - 1] - u <= b) & ((at == end) | (u[np.minimum(at, u.size - 1)] - u > b))
        bad = np.flatnonzero(~ok)
        lo, hi, ui = self._first[bad], end[bad], u[bad]
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            below = u[np.minimum(mid, u.size - 1)] - ui <= b
            lo, hi = np.where((lo < hi) & below, mid + 1, lo), np.where(below, hi, mid)
        at[bad] = lo
        return at

    def _gather(self, lo: np.ndarray, hi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the differences of the pairs i, [lo[i], hi[i]) into ``out``
        in pair order and return it. It runs over four spans of rows of about
        a quarter of the pairs each, so its temporaries hold about a quarter
        of ``out``."""
        k = hi - lo
        total = np.cumsum(k)
        first = total - k  # each row's first position in out
        rows = np.searchsorted(total, np.arange(1, 4) * (out.size // 4), "right")
        for r0, r1 in zip([0, *rows.tolist()], [*rows.tolist(), k.size]):
            if r0 < r1:
                p0, p1 = int(first[r0]), int(total[r1 - 1])
                idx = np.repeat(lo[r0:r1] - first[r0:r1], k[r0:r1])
                idx += np.arange(p0, p1)
                np.take(self._u, idx, out=out[p0:p1], mode="clip")  # "raise" would copy out
                del idx
                out[p0:p1] -= np.repeat(self._u[r0:r1], k[r0:r1])
        return out

    def _cuts(self, lo: np.ndarray, hi: np.ndarray, count: int, b: float) -> list[float]:
        """Values that split the pairs i, [lo[i], hi[i]) into pieces of about
        three quarters of a bucket each, read off an evenly spaced sample of
        128 pairs per piece; the slack keeps most pieces under a bucket despite
        the sample's error, and the few that are not get cut again."""
        pieces = -(-4 * count // (3 * _BUCKET_PAIRS))
        size = min(count, 128 * pieces)
        k = hi - lo
        total = np.cumsum(k)
        at = (np.arange(size) * (count / size)).astype(np.int64)
        i = np.searchsorted(total, at, "right")
        sample = np.sort(self._u[lo[i] + at - total[i] + k[i]] - self._u[i])
        cuts = _distinct(sample[np.arange(1, pieces) * size // pieces])
        return cuts[cuts < b].tolist()


def tune_threshold(bundle: DatasetBundle, budget: SampleBudget) -> tuple[float, float]:
    """Find the threshold that spends the budget without exceeding it.

    Bisects the candidate grid, keeping the fraction at ``hi`` within the
    target and the fraction just below ``lo`` above it, so the result is
    feasible and its immediate predecessor on the grid is not. The retained
    count is not globally monotone in the threshold (a larger threshold can
    delay a capture and set up extra later ones), so this is one such
    boundary, not necessarily the smallest feasible candidate.

    When even the largest candidate keeps too many points, the next float
    above it is tried: it exceeds every difference, so nothing fires after
    each signal's first point, which is the least any threshold keeps. When
    the largest candidate is the largest float, no finite threshold lies
    above it, and the least is its own fraction.

    The grid is read by rank from value buckets (``_DifferenceGrid``), so
    memory stays bounded however long the signals are.

    Returns (threshold, achieved_fraction). Raises InfeasibleBudgetError if
    even that threshold keeps too many points.
    """
    target = budget.target_fraction
    cands = _DifferenceGrid(bundle)
    signals = [signal for _, signal in _by_run(bundle.values, bundle.offsets)]
    lo, hi = 0, len(cands) - 1
    hi_frac = _kept_fraction(signals, cands[hi])
    if hi_frac > target:
        above = math.nextafter(cands[hi], math.inf)
        least = hi_frac if math.isinf(above) else _kept_fraction(signals, above)
        if least > target:
            shown = f"{least:.6g}" if float(f"{least:.6g}") > target else repr(least)
            raise InfeasibleBudgetError(f"dataset {bundle.name!r}: budget {target} infeasible: "
                                        f"minimum achievable fraction is {shown}",
                                        min_achievable_fraction=least)
        return above, least
    while lo < hi:
        mid = (lo + hi) // 2
        mid_frac = _kept_fraction(signals, cands[mid])
        if mid_frac <= target:
            hi, hi_frac = mid, mid_frac
        else:
            lo = mid + 1
    return cands[hi], hi_frac
