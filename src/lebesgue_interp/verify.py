"""The paper's property checks, its single-point limit lemma, and the
independent oracles they rest on.

Each check re-derives its expectation through an independent route (naive
trace, interior-point scan, Monte Carlo, closed-form fixtures) so a pass
means the fast implementations agree with first principles. Every check
takes a seed and a size: ``lebesgue-interp verify`` runs them at the sizes
in ``run_all_checks`` and the acceptance tests at their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import interp_pchip
from .bench import generate_synthetic_corpus
from .core import InvalidInputError, SampledSeries, TimeSeries
from .sampling import _send_on_delta, lebesgue_sample

__all__ = [
    "CheckResult",
    "abrupt_limit_condition",
    "chord_exits_band",
    "check_band",
    "check_convexity_area",
    "check_limit_condition",
    "check_pchip_shape",
    "check_sampler_trace",
    "monte_carlo_convexity_area",
    "run_all_checks",
    "trace_send_on_delta",
]

THRESHOLDS = (0.02, 0.05, 0.1)
WALK_LENGTH = 500


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def trace_send_on_delta(values, threshold):
    """Naive re-scan of the send-on-delta rule: restart the search after
    every capture instead of streaming."""
    values = list(values)
    captured = [(0, values[0])]
    pos = 0
    while True:
        ref = captured[-1][1]
        nxt = None
        for j in range(pos + 1, len(values)):
            if abs(values[j] - ref) >= threshold:
                nxt = j
                break
        if nxt is None:
            return captured
        captured.append((nxt, values[nxt]))
        pos = nxt


def chord_exits_band(xa, ya, xb, yb, threshold):
    """Scan every interior grid point of the chord for a strict band exit."""
    slope = (yb - ya) / (xb - xa)
    for x in range(xa + 1, xb):
        if abs(ya + slope * (x - xa) - ya) > threshold:
            return True
    return False


def abrupt_limit_condition(xa: int, ya: float, xb: int, yb: float, threshold: float) -> bool:
    """True iff the chord from (xa, ya) to (xb, yb) exits the tolerated band of ya.

    Checking only the last interior grid point x = xb - 1 suffices: the
    chord's deviation |slope| * (x - xa) is largest there, so it lies
    strictly outside the band iff that single point does. A zero slope can
    never leave the band; adjacent knots have nothing between.
    """
    if xa >= xb:
        raise InvalidInputError(f"interval endpoints must be ordered, got {xa} >= {xb}")
    slope = (yb - ya) / (xb - xa)
    if slope == 0.0:
        return False
    return xb - 1 > threshold / abs(slope) + xa


def monte_carlo_convexity_area(samples: int, seed: int) -> float:
    """Fraction of the tolerated box lying between the chord and its top edge.

    Canonical turn-shaped configuration: the right endpoint sits exactly one
    threshold above the left, so the chord cuts the box [x_i, x_{i+1}] x
    [y_i - t, y_i + t] into a triangle of a quarter of its area; the result
    depends neither on the endpoints nor on t, so the box is [0, 1] x [-1, 1]
    around y_i = 0. Points are counted strictly between the chord and the
    upper bound.
    """
    if samples < 10_000:
        raise InvalidInputError(f"samples must be >= 10000, got {samples}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=samples)
    y = rng.uniform(-1.0, 1.0, size=samples)
    return np.count_nonzero((y > x) & (y < 1.0)) / samples  # the chord rises from 0 to 1


def _walk_cases(seed: int, count: int):
    """Each walk at every threshold, then rounded to 1/64ths at t = 1/16, where |v - ref| == t."""
    for ts in generate_synthetic_corpus(seed, {"walk": count}, WALK_LENGTH).signals:
        for t in THRESHOLDS:
            yield ts, t
        yield TimeSeries(np.round(ts.values * 64.0) / 64.0), 1 / 16


def check_sampler_trace(seed: int, count: int) -> CheckResult:
    """The sampler keeps exactly the points the naive trace keeps, on each walk alone and on the
    walks of each threshold sampled as one dataset, which runs them in lockstep from 32 walks on."""
    mismatches = 0
    by_threshold: dict[float, tuple[list, list]] = {}
    for ts, t in _walk_cases(seed, count):
        got = lebesgue_sample(ts, t)
        idx, vals = zip(*trace_send_on_delta(ts.values.tolist(), t))
        mismatches += got.indices.tolist() != list(idx) or got.values.tolist() != list(vals)
        walks, traces = by_threshold.setdefault(t, ([], []))
        walks.append(ts.values)
        traces.append(list(idx))
    for t, (walks, traces) in by_threshold.items():
        offsets = np.cumsum([0, *map(len, walks)])
        kept = _send_on_delta(np.concatenate(walks), offsets, t)
        signals = np.split(kept, np.searchsorted(kept, offsets[1:-1]))
        mismatches += sum((k - a).tolist() != idx for k, a, idx in zip(signals, offsets, traces))
    detail = (f"{count} walks x {len(THRESHOLDS)} thresholds + quantized, alone and as one "
              f"dataset per threshold, {mismatches} mismatches")
    return CheckResult("sampler-vs-naive-trace", mismatches == 0, detail)


def check_band(seed: int, count: int) -> CheckResult:
    """Every skipped point, the tail included, stays strictly inside the
    band around the last kept value before it (kept points sit at 0 < t)."""
    escaped = 0
    for ts, t in _walk_cases(seed, count):
        s = lebesgue_sample(ts, t)
        held = s.values[np.searchsorted(s.indices, np.arange(len(ts)), side="right") - 1]
        escaped += int(np.count_nonzero(np.abs(ts.values - held) >= t))
    detail = f"{count} walks x {len(THRESHOLDS)} thresholds + quantized, {escaped} escaped the band"
    return CheckResult("tolerated-region-containment", escaped == 0, detail)


def check_limit_condition(seed: int, cases: int) -> CheckResult:
    """The single-point band-exit shortcut agrees with a scan of every
    interior point, on flat, gentle and steep chords and at t = 0."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    for _ in range(cases):
        xa = int(rng.integers(0, 100))
        xb = xa + int(rng.integers(1, 60))
        ya = float(rng.uniform(-1, 1))
        yb = ya if rng.random() < 0.05 else float(rng.uniform(-1, 1))
        t = 0.0 if rng.random() < 0.05 else float(rng.uniform(0.0, 0.5))
        fast = abrupt_limit_condition(xa, ya, xb, yb, t)
        disagreements += fast != chord_exits_band(xa, ya, xb, yb, t)
    detail = f"{cases} random intervals, {disagreements} disagreements"
    return CheckResult("limit-condition-vs-interior-scan", disagreements == 0, detail)


def check_convexity_area(seed: int, samples: int) -> CheckResult:
    """The turn heuristic's false-assumption region is a quarter of the box."""
    frac = monte_carlo_convexity_area(samples, seed)
    ok = abs(frac - 0.25) <= 0.005
    return CheckResult("convexity-false-assumption-area", ok, f"fraction {frac:.5f} vs 0.25 +/- 0.005")


def _pchip(indices, values) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    return interp_pchip(SampledSeries(idx, values, int(idx[-1]) + 1, 0.0))


def check_pchip_shape(seed: int, fixtures: int) -> CheckResult:
    """PCHIP reproduces collinear knots (a dyadic line bit for bit), clamps
    an end slope to 3x the end secant where the secants change sign, keeps
    monotone knots monotone in either direction and stays inside each
    gap's knot envelope."""
    line, uneven = np.arange(13) * 0.25, np.arange(11) / 10.0
    collinear = np.array_equal(_pchip([0, 4, 8, 12], line[::4]), line) and np.allclose(
        _pchip([0, 3, 7, 10], uneven[[0, 3, 7, 10]]), uneven, rtol=0.0, atol=1e-12
    )
    # The one-sided end slope 1.75 exceeds 3 x 0.5, is clamped to 1.5 and gives 0.875.
    clamped = _pchip([0, 2, 4], [0, 1, -3])[1] == _pchip([0, 2, 4], [-3, 1, 0])[3] == 0.875
    rng = np.random.default_rng(seed)
    non_monotone = escaped = 0
    for _ in range(fixtures):
        k = int(rng.integers(3, 10))
        idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 60), size=k - 1, replace=False))])
        vals = np.sort(rng.uniform(0, 1, size=k))[:: -1 if rng.random() < 0.5 else 1]
        out = _pchip(idx, vals)
        non_monotone += bool(np.any(np.diff(out) * np.sign(vals[-1] - vals[0]) < -1e-12))
        escaped += any(
            out[a : b + 1].min() < min(ya, yb) - 1e-12 or out[a : b + 1].max() > max(ya, yb) + 1e-12
            for a, b, ya, yb in zip(idx, idx[1:], vals, vals[1:])
        )
    detail = (f"collinear reproduced: {collinear}; end slopes clamped: {clamped}; "
              f"{fixtures} monotone fixtures, {non_monotone} not monotone, "
              f"{escaped} escaped a gap's knot envelope")
    ok = collinear and clamped and non_monotone == escaped == 0
    return CheckResult("pchip-shape-preservation", ok, detail)


def run_all_checks() -> list[CheckResult]:
    """Every check at the sizes ``lebesgue-interp verify`` uses."""
    return [
        check_sampler_trace(11, 200),
        check_band(12, 200),
        check_limit_condition(13, 10_000),
        check_convexity_area(14, 1_000_000),
        check_pchip_shape(15, 200),
    ]
