"""Shared domain types, the package's errors, normalization, equal-length runs, and the
one rule for forked runs.

Every error is a ValueError, so callers can catch broadly; the CLI maps them to exit
code 1 (validation) while OSError stays exit code 2 (I/O). Each one pickles, so it
can cross a process boundary.

The time axis is always the integer sample index 0..n-1; values are float64,
read-only after construction, and safe to share across threads.

``_fork_map`` is the one rule that shares jobs out over forked processes, stops
a share at its first error and reruns missing jobs, for bench and tuning alike.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, NoReturn, Sequence

import numpy as np

__all__ = [
    "TimeSeries",
    "SampledSeries",
    "ReconstructionParams",
    "DatasetBundle",
    "normalize_unit_interval",
    "InvalidInputError",
    "ParseError",
    "InfeasibleBudgetError",
]


class InvalidInputError(ValueError):
    """An argument violates an operation's precondition."""


class ParseError(ValueError):
    """A text field could not be parsed; carries row/column context."""

    def __init__(self, message: str, *, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class InfeasibleBudgetError(ValueError):
    """No candidate threshold can meet the requested sample budget."""

    def __init__(self, message: str, *, min_achievable_fraction: float):
        super().__init__(message)
        self.min_achievable_fraction = min_achievable_fraction

    def __reduce__(self):
        # pickle's default rebuilds by cls(*args), which lacks the keyword-only fraction
        rebuild = partial(type(self), min_achievable_fraction=self.min_achievable_fraction)
        return rebuild, self.args


def _as_signal_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInputError(f"{what} must contain at least one value")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise InvalidInputError(f"{what} contains a non-finite value at position {bad}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_threshold(threshold: float) -> None:
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise InvalidInputError(f"threshold must be finite and >= 0, got {threshold}")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One signal: a finite float sequence indexed by 0..n-1."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_signal_array(self.values, "signal"))

    @classmethod
    def _of(cls, values: np.ndarray) -> TimeSeries:
        """A series over checked, read-only values, taken without a copy."""
        series = object.__new__(cls)
        object.__setattr__(series, "values", values)
        return series

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
            raise InvalidInputError(
                f"indices and values must be equal-length 1-d arrays, got {idx.shape} vs {vals.shape}"
            )
        if idx[0] != 0:
            raise InvalidInputError(f"first sampled index must be 0, got {int(idx[0])}")
        if (idx[1:] <= idx[:-1]).any():
            raise InvalidInputError("sampled indices must be strictly increasing")
        if int(idx[-1]) >= self.source_length:
            raise InvalidInputError(
                f"sampled index {int(idx[-1])} out of range for source length {self.source_length}"
            )
        _check_threshold(self.threshold)
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
        _check_threshold(self.threshold)
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


class DatasetBundle:
    """A named collection of signals, held flat: signal i is
    ``values[offsets[i]:offsets[i + 1]]`` of one read-only float64 array."""

    def __init__(self, name: str, signals: Sequence[TimeSeries]):
        arrays = [ts.values for ts in signals]
        if not arrays:
            raise InvalidInputError(f"dataset {name!r} is empty")
        flat = self._flat(name, np.concatenate(arrays), np.cumsum([0, *map(len, arrays)]))
        vars(self).update(vars(flat))

    @classmethod
    def _flat(cls, name: str, values: np.ndarray, offsets: np.ndarray) -> DatasetBundle:
        """A bundle over finite values and strictly increasing int64 offsets
        from 0 to ``values.size``, both taken without a copy and made read-only."""
        bundle = object.__new__(cls)
        bundle.name, bundle.values, bundle.offsets = name, values, offsets
        values.setflags(write=False)
        offsets.setflags(write=False)
        return bundle

    @property
    def signals(self) -> tuple[TimeSeries, ...]:
        """Each signal as a TimeSeries over its slice of ``values``, not a copy."""
        return tuple(map(TimeSeries._of, np.split(self.values, self.offsets[1:-1])))

    def __len__(self) -> int:
        return self.offsets.size - 1


def _normalize(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Every signal ``values[offsets[i]:offsets[i + 1]]`` normalized as
    ``normalize_unit_interval`` does it, into one read-only array: the same
    IEEE operations per element, with each signal's min and span repeated."""
    lengths = np.diff(offsets)
    lo, hi = np.minimum.reduceat(values, offsets[:-1]), np.maximum.reduceat(values, offsets[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        out = values - np.repeat(lo, lengths)
        out /= np.repeat(span, lengths)
    for i in np.flatnonzero((span == 0.0) | np.isinf(span)):  # constant, or hi - lo overflows
        a, b = offsets[i], offsets[i + 1]
        v, l, h = values[a:b] / 2.0, lo[i] / 2.0, hi[i] / 2.0
        out[a:b] = 0.0 if span[i] == 0.0 else (v - l) / (h - l)
    out.setflags(write=False)
    return out


def _runs(lengths: np.ndarray) -> list[tuple[int, int]]:
    """The [lo, hi) runs of consecutive equal ``lengths``, in order: the signals
    ``offsets[lo]:offsets[hi]`` of a run are the rows of one reshaped slice of ``values``."""
    edges = np.flatnonzero(np.diff(lengths, prepend=-1, append=-1)).tolist()
    return list(zip(edges[:-1], edges[1:]))


def normalize_unit_interval(series: TimeSeries) -> TimeSeries:
    """Affinely rescale one signal so min -> 0 and max -> 1.

    A constant signal maps to all zeros rather than erroring, so every
    signal stays usable downstream. When hi - lo overflows float64 every
    term is halved first, which is exact outside the subnormal range.
    """
    return TimeSeries._of(_normalize(series.values, np.array([0, len(series)])))


# CPython 3.12+ warns at a fork whenever the process has more than one OS thread, and
# numpy's OpenBLAS keeps a thread of its own
_FORK_WARNING = (r"This process \(pid=\d+\) is multi-threaded, "
                 r"use of fork\(\) may lead to deadlocks in the child\.")

# True in a process while ``_fork_map`` has workers, and in every worker forked there: a fork
# is a property of the whole process, so this is module state, and it keeps forks from nesting
_forking = False


def _fork_procs(jobs: int) -> int:
    """How many processes ``_fork_map`` may share ``jobs`` jobs over: one per usable CPU
    (``os.sched_getaffinity``; one where it does not exist), at most ``jobs``, and one when
    another Python thread is alive, where a fork is unsafe, or inside a forked run."""
    affinity = getattr(os, "sched_getaffinity", None)
    if _forking or affinity is None or threading.active_count() > 1:
        return 1
    return max(1, min(jobs, len(affinity(0))))


def _fork_map(jobs: Sequence[Callable[[], object]], weights: Sequence[float]) -> list:
    """Each job's result, in job order. Over ``_fork_procs`` processes, each job goes,
    heaviest first by ``weights``, to the least-loaded one; the heaviest job's share runs
    here and every other in a worker forked before any job starts, each in job order up to
    its first job that raises an ``Exception``. A worker pickles its results into a pipe and
    ends with status 0 only once every byte is written. Then every job without a result, on
    one process every job, runs here in job order up to the job whose error this process
    kept, which raises that error without running again, so an error raises as in the
    in-order run; if this process raises anything else, every worker is killed. Every worker
    is reaped before this returns."""
    global _forking
    procs, done, failed = _fork_procs(len(jobs)), {}, None
    if procs > 1:
        shares, totals = [[] for _ in range(procs)], [0] * procs
        for i in sorted(range(len(jobs)), key=lambda i: -weights[i]):
            p = min(range(procs), key=lambda p: (totals[p], len(shares[p])))
            shares[p].append(i)
            totals[p] += weights[i]
        workers = []  # each worker's pid and the read end of its pipe
        _forking = True
        try:
            for share in shares[1:]:
                read, write = os.pipe()
                # Safe: no other Python thread is alive, a worker makes no BLAS call, and
                # OpenBLAS re-initialises its threads after a fork.
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _work(jobs, share, write)
                os.close(write)
                workers.append((pid, open(read, "rb")))
            done, failed = _run_share(jobs, shares[0])
            while workers:
                pid, fh = workers[0]
                data = fh.read()
                fh.close()
                status = os.waitpid(pid, 0)[1]
                del workers[0]
                done.update(pickle.loads(data) if os.waitstatus_to_exitcode(status) == 0 else {})
        finally:
            _forking = False
            for pid, fh in workers:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                fh.close()
    stop, error = failed or (len(jobs), None)
    results = [done[i] if i in done else jobs[i]() for i in range(stop)]
    if error is not None:
        raise error
    return results


def _run_share(jobs: Sequence[Callable[[], object]], share: list[int]) -> tuple[dict, tuple | None]:
    """The results of the jobs ``share`` names, by index, in order up to the first that
    raises an ``Exception``, and that job's index and error (None when none raised)."""
    results = {}
    for i in sorted(share):
        try:
            results[i] = jobs[i]()
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _work(jobs: Sequence[Callable[[], object]], share: list[int], write: int) -> NoReturn:
    """A forked worker: pickle ``_run_share(jobs, share)``'s results into the pipe ``write``
    and end the process, with status 0 only when every byte was written. It never returns."""
    code = 1
    try:
        with open(write, "wb") as fh:
            pickle.dump(_run_share(jobs, share)[0], fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
