"""Independent reference implementations used as test oracles.

Everything here recomputes expectations from first principles (naive scans,
pointwise formulas) and deliberately avoids the library's code paths. The
naive send-on-delta trace and the chord interior scan live with the property
checks in ``lebesgue_interp.verify`` and are re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

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
    """Closest knot by index distance, earlier knot on ties."""
    out = []
    for x in range(length):
        best = min(points, key=lambda p: (abs(p[0] - x), p[0]))
        out.append(best[1])
    return out


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
    for k in range(len(x) - 1):
        i0, i1, hk = int(x[k]), int(x[k + 1]), h[k]
        t = np.arange(i1 - i0) / hk
        out[i0:i1] = ((1.0 + 2.0 * t) * (1.0 - t) ** 2 * y[k] + hk * (t * (1.0 - t) ** 2) * m[k]
                      + t * t * (3.0 - 2.0 * t) * y[k + 1] + hk * (t * t * (t - 1.0)) * m[k + 1])
        out[i0] = y[k]
    out[int(x[-1])] = y[-1]
    return out


def rmse_plain(a, b):
    assert len(a) == len(b)
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / len(a))


def population_sd(values):
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
