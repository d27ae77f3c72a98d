"""Independent reference implementations used as test oracles.

Everything here recomputes expectations from first principles (naive scans,
pointwise formulas) and deliberately avoids the library's code paths. The
naive send-on-delta trace and the chord interior scan live with the property
checks in ``lebesgue_interp.verify`` and are re-exported here.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from lebesgue_interp import lebesgue_sample
from lebesgue_interp.sampling import threshold_candidates
from lebesgue_interp.verify import chord_exits_band, trace_send_on_delta  # noqa: F401


def points(s):
    """A sampled series as (index, value) pairs."""
    return list(zip(s.indices.tolist(), s.values.tolist()))


def zoh_pointwise(points, length):
    """Hold-previous evaluated index by index."""
    out = []
    for x in range(length):
        prev = [v for (i, v) in points if i <= x]
        out.append(prev[-1])
    return out


def linear_pointwise(points, length):
    """Chord formula a*x + b evaluated index by index; hold after the last knot."""
    out = []
    for x in range(length):
        seg = None
        for (xa, ya), (xb, yb) in zip(points, points[1:]):
            if xa <= x <= xb:
                seg = (xa, ya, xb, yb)
                break
        if seg is None:
            out.append(points[-1][1])
            continue
        xa, ya, xb, yb = seg
        a = (yb - ya) / (xb - xa)
        b = yb - a * xb
        out.append(a * x + b)
    return out


def nearest_pointwise(points, length):
    """Closest knot by index distance, earlier knot on ties: every index's
    distance to every knot, in ascending index order, and the first smallest."""
    best = np.abs(np.arange(length)[:, None] - np.array([i for i, _ in points])).argmin(axis=1)
    return [points[j][1] for j in best.tolist()]


def augmented_knots_scalar(points, params, turns):
    """Knot plan built gap by gap: each kept point, then a turn knot and/or
    hold anchor strictly inside the gap that follows it.

    A gap is Abrupt when its jump is nonzero and not below the tolerance.
    With ``turns`` a gap after a strict slope-sign reversal and with enough
    spacing on both sides gets a knot at the floor midpoint, halfway between
    the chord and the band edge on the side of the turn.
    """
    t = params.threshold
    knots = []
    for i, ((xa, ya), (xb, yb)) in enumerate(zip(points, points[1:])):
        knots.append((xa, ya))
        jump = abs(yb - ya)
        abrupt = not (jump == 0.0 or jump < params.tolerance)
        gated = False
        if turns and i > 0:
            xp, yp = points[i - 1]
            d_in, d_out = ya - yp, yb - ya
            gated = (
                d_in != 0.0
                and d_out != 0.0
                and (d_in > 0.0) != (d_out > 0.0)
                and xa - xp > params.previous_distance
                and xb - xa > params.subsequent_min_distance
                and (params.subsequent_max_distance is None
                     or xb - xa < params.subsequent_max_distance)
            )
        last_insert = xa
        if gated:
            xm = (xa + xb) // 2
            if xm > xa:
                chord = ya + (yb - ya) * (xm - xa) / (xb - xa)
                if ya < yp:
                    knots.append((xm, (chord + ya - t) / 2.0))
                else:
                    knots.append((xm, (chord + ya + t) / 2.0))
            last_insert = xm
        if abrupt and xb - 1 > last_insert:
            knots.append((xb - 1, ya))
    knots.append(points[-1])
    return knots


def chord_loop(knots, length):
    """Straight line across each gap in turn, endpoints written exactly;
    hold after the last knot."""
    out = np.empty(length)
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        out[x0 : x1 + 1] = y0 + (y1 - y0) * (np.arange(x1 - x0 + 1) / (x1 - x0))
        out[x0], out[x1] = y0, y1
    out[knots[-1][0] :] = knots[-1][1]
    return out


def pchip_loop(knots, length):
    """Fritsch-Carlson slopes and the cubic Hermite pieces, knot by knot and
    gap by gap; hold after the last knot."""
    x = np.array([k[0] for k in knots], dtype=np.float64)
    y = np.array([k[1] for k in knots], dtype=np.float64)
    out = np.empty(length)
    out[int(x[-1]) :] = y[-1]
    if len(x) == 1:
        return out
    h = np.diff(x)
    d = np.diff(y) / h
    m = np.array([d[0], d[0]]) if len(x) == 2 else np.zeros(len(x))
    if len(x) > 2:
        for k in range(1, len(x) - 1):
            if d[k - 1] != 0.0 and d[k] != 0.0 and (d[k - 1] > 0.0) == (d[k] > 0.0):
                w1 = 2.0 * h[k] + h[k - 1]
                w2 = h[k] + 2.0 * h[k - 1]
                m[k] = (w1 + w2) / (w1 / d[k - 1] + w2 / d[k])
        for i, (h0, h1, d0, d1) in ((0, (h[0], h[1], d[0], d[1])),
                                    (-1, (h[-1], h[-2], d[-1], d[-2]))):
            s = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
            if np.sign(s) != np.sign(d0):
                s = 0.0
            elif np.sign(d0) != np.sign(d1) and abs(s) > 3.0 * abs(d0):
                s = 3.0 * d0
            m[i] = s
    # each gap in Python floats, point by point: numpy's operations in numpy's order,
    # with (1 - t) ** 2 as u * u, which is how numpy squares
    xs, ys, hs, ms = x.astype(int).tolist(), y.tolist(), h.tolist(), m.tolist()
    for k in range(len(xs) - 1):
        i0, i1, hk, y0, y1, m0, m1 = xs[k], xs[k + 1], hs[k], ys[k], ys[k + 1], ms[k], ms[k + 1]
        gap = [y0]
        for j in range(1, i1 - i0):
            t = j / hk
            u = 1.0 - t
            gap.append((1.0 + 2.0 * t) * (u * u) * y0 + hk * (t * (u * u)) * m0
                       + t * t * (3.0 - 2.0 * t) * y1 + hk * (t * t * (t - 1.0)) * m1)
        out[i0:i1] = gap
    out[xs[-1]] = ys[-1]
    return out


def periodic_positions(n, fraction):
    """The periodic sampler's positions in a signal of length n, from its
    formula: round(j * (n - 1) / (k - 1)), half to even, for j < k =
    max(1, ceil(fraction * n)), deduplicated ascending."""
    k = max(1, math.ceil(fraction * n))
    return sorted({round(j * (n - 1) / max(1, k - 1)) for j in range(k)})


def normalize_scalar(values):
    """One signal rescaled to [0, 1] from its Python-float extrema: zeros when
    constant, and every term halved first when max - min overflows."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return np.zeros_like(v)
    if math.isinf(hi - lo):
        v, lo, hi = v / 2.0, lo / 2.0, hi / 2.0
    return (v - lo) / (hi - lo)


def bundle_fraction(bundle, threshold):
    """Mean over signals of retained-count / length at one threshold, from
    full SampledSeries, summed in order (``sum`` compensates float sums from
    Python 3.12)."""
    total = 0.0
    for ts in bundle.signals:
        total += lebesgue_sample(ts, threshold).fraction
    return total / len(bundle.signals)


def bisect_candidate_grid(bundle, target):
    """The tuning bisection over the whole grid ``threshold_candidates`` builds:
    (threshold, fraction), or ("infeasible", least fraction)."""
    cands = threshold_candidates(bundle)
    lo, hi = 0, len(cands) - 1
    hi_frac = bundle_fraction(bundle, float(cands[hi]))
    if hi_frac > target:
        above = float(np.nextafter(cands[hi], np.inf))
        least = bundle_fraction(bundle, above)
        return ("infeasible", least) if least > target else (above, least)
    while lo < hi:
        mid = (lo + hi) // 2
        mid_frac = bundle_fraction(bundle, float(cands[mid]))
        if mid_frac <= target:
            hi, hi_frac = mid, mid_frac
        else:
            lo = mid + 1
    return float(cands[hi]), hi_frac


def hermite_closed_form(x, y, m):
    """The cubic Hermite interpolant on x[0] .. x[-1], written as the sum of
    the four basis functions over the whole span at once; knots exact."""
    x = np.asarray(x, dtype=np.int64)
    dx = np.diff(x)
    j = np.repeat(np.arange(dx.size), dx)
    h = dx.astype(np.float64)[j]
    t = (np.arange(x[0], x[-1]) - x[j]) / h
    h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
    h10 = t * (1.0 - t) ** 2
    h01 = t * t * (3.0 - 2.0 * t)
    h11 = t * t * (t - 1.0)
    out = np.append(h00 * y[j] + h * h10 * m[j] + h01 * y[j + 1] + h * h11 * m[j + 1], 0.0)
    out[x - x[0]] = y
    return out


def rmse_plain(a, b):
    assert len(a) == len(b)
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / len(a))


def population_sd(values):
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def rmse_per_slice(original, reconstructed, bounds):
    """Each signal's RMSE from its own 1-D slice of the squared errors."""
    sq = (original - reconstructed) ** 2
    means = [np.add.reduce(sq[a:b]) / (b - a) for a, b in zip(bounds[:-1], bounds[1:])]
    return np.sqrt(means).tolist()


# method -> (knot plan: the kept points when None, else augmented_knots_scalar with or
# without turns; kernel). The linear method uses chord_loop too: linear_pointwise's
# a * x + b agrees with the chord only to 1e-12.
SCALAR_METHODS = {
    "zoh": (None, zoh_pointwise),
    "linear": (None, chord_loop),
    "nearest": (None, nearest_pointwise),
    "pchip": (None, pchip_loop),
    "zeli": (False, chord_loop),
    "zelic": (True, chord_loop),
    "zechip": (False, pchip_loop),
    "zechipc": (True, pchip_loop),
}


def score_scalar(signals, kept, params, method):
    """Each signal's RMSE under ``method``, signal by signal: its kept
    (index, value) points, planned into knots gap by gap, rebuilt by a
    pointwise or loop kernel and scored by ``rmse_per_slice``."""
    turns, kernel = SCALAR_METHODS[method]
    rebuilt = [
        np.asarray(kernel(p if turns is None else augmented_knots_scalar(p, params, turns), len(v)),
                   dtype=np.float64)
        for v, p in zip(signals, kept)
    ]
    bounds = np.cumsum([0, *map(len, signals)])
    return rmse_per_slice(np.concatenate(signals), np.concatenate(rebuilt), bounds)


def mean_abruptness_per_signal(signals):
    """The mean over signals of np.std(np.diff(values)), one signal at a time;
    a signal whose SD overflows is taken at a 2**-e scale and scaled back."""
    sds = []
    for v in signals:
        with np.errstate(over="ignore", invalid="ignore"):
            sd = np.std(np.diff(v))
            if not np.isfinite(sd):
                e = int(np.frexp(np.max(np.abs(v)))[1])
                sd = np.ldexp(np.std(np.diff(np.ldexp(v, -e))), e)
        sds.append(sd)
    return float(np.mean(sds))


def ucr_rows_csv(path):
    """A UCR file's rows as csv.reader splits them (universal newlines, tab
    delimiter), the label dropped and trailing NaN padding trimmed, each value
    parsed with float()."""
    rows = []
    with open(path, newline="") as fh:
        for fields in csv.reader(fh, delimiter="\t"):
            if not fields or (len(fields) == 1 and not fields[0].strip()):
                continue
            fields = fields[1:]
            while fields and fields[-1].strip().lower() == "nan":
                fields.pop()
            rows.append(np.array([float(f) for f in fields]))
    return rows
