"""The interpolation kernels and the four baseline reconstructors.

A kernel turns knots (strictly increasing integer indices from 0, plus
their values) into a signal on the grid 0..n-1. Every kernel reproduces
the knots exactly and holds the last knot value to the end of the domain
(under send-on-delta sampling the un-fired tail provably stays in the last
tolerated band, so holding minimizes the worst case). The baselines run a
kernel over the kept points; ``zelic`` runs the chord and cubic kernels
over its knot plans.
"""

from __future__ import annotations

import numpy as np

from .core import Reconstruction, SampledSeries
from .errors import InvalidInputError

__all__ = [
    "interp_zoh",
    "interp_linear",
    "interp_nearest",
    "interp_pchip",
    "chord_kernel",
    "cubic_kernel",
    "fritsch_carlson_slopes",
    "hermite_fill",
]


def _segments(x: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid lo..hi-1 and, per grid point g, the j with x[j] <= g < x[j+1]
    (the last knot for g past it)."""
    g = np.arange(lo, hi)
    return g, np.searchsorted(x, g, side="right") - 1


def chord_kernel(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Straight lines between consecutive knots."""
    out = np.empty(n, dtype=np.float64)
    end = int(x[-1])
    g, j = _segments(x, 0, end)
    out[:end] = y[j] + np.diff(y)[j] * ((g - x[j]) / np.diff(x)[j])
    out[x] = y
    out[end:] = y[-1]
    return out


def cubic_kernel(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Shape-preserving piecewise cubic; one knot degenerates to a hold."""
    out = np.empty(n, dtype=np.float64)
    if x.size > 1:
        hermite_fill(out, x, y, fritsch_carlson_slopes(x.astype(np.float64), y))
    out[int(x[-1]) :] = y[-1]
    return out


def fritsch_carlson_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Monotonicity-preserving knot slopes for cubic Hermite interpolation.

    Interior knots get the weighted harmonic mean of the two adjacent
    secants and 0 where the secants change sign or vanish; the endpoints
    use the one-sided three-point estimate clamped so the first segment
    cannot overshoot.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < 2:
        raise InvalidInputError("slopes need at least two knots")
    h = np.diff(x)
    d = np.diff(y) / h
    if n == 2:
        return np.array([d[0], d[0]])
    m = np.zeros(n, dtype=np.float64)
    d0, d1 = d[:-1], d[1:]
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    same_sign = (d0 != 0.0) & (d1 != 0.0) & ((d0 > 0.0) == (d1 > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        m[1:-1] = np.where(same_sign, (w1 + w2) / (w1 / d0 + w2 / d1), 0.0)

    def edge(h0: float, h1: float, d0: float, d1: float) -> float:
        s = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
        if np.sign(s) != np.sign(d0):
            return 0.0
        if np.sign(d0) != np.sign(d1) and abs(s) > 3.0 * abs(d0):
            return 3.0 * d0
        return s

    m[0] = edge(h[0], h[1], d[0], d[1])
    m[-1] = edge(h[-1], h[-2], d[-1], d[-2])
    return m


def hermite_fill(out: np.ndarray, x: np.ndarray, y: np.ndarray, m: np.ndarray) -> None:
    """Evaluate the piecewise cubic Hermite interpolant on the integer grid.

    Fills out[x[0] .. x[-1]] inclusive; knot values are written exactly.
    """
    x = np.asarray(x, dtype=np.int64)
    lo, hi = int(x[0]), int(x[-1])
    g, j = _segments(x, lo, hi)
    h = np.diff(x).astype(np.float64)[j]
    t = (g - x[j]) / h
    tm2 = (1.0 - t) ** 2
    h00 = (1.0 + 2.0 * t) * tm2
    h10 = t * tm2
    h01 = t * t * (3.0 - 2.0 * t)
    h11 = t * t * (t - 1.0)
    out[lo:hi] = h00 * y[j] + h * h10 * m[j] + h01 * y[j + 1] + h * h11 * m[j + 1]
    out[x] = y


def interp_zoh(s: SampledSeries) -> Reconstruction:
    """Hold each knot value until the next knot; jump there."""
    return Reconstruction(s.values[_segments(s.indices, 0, s.source_length)[1]], "zoh")


def interp_linear(s: SampledSeries) -> Reconstruction:
    """Straight lines between consecutive knots; constant after the last."""
    return Reconstruction(chord_kernel(s.indices, s.values, s.source_length), "linear")


def interp_nearest(s: SampledSeries) -> Reconstruction:
    """Each index copies the nearest knot's value; ties go to the earlier knot."""
    x, y = s.indices, s.values
    g, j = _segments(x, 0, s.source_length)
    nxt = np.minimum(j + 1, x.size - 1)
    # g <= floor(midpoint) is nearer to (or tied with) the earlier knot
    return Reconstruction(y[np.where(g > (x[j] + x[nxt]) // 2, nxt, j)], "nearest")


def interp_pchip(s: SampledSeries) -> Reconstruction:
    """Shape-preserving piecewise cubic through the knots (two knots: a line)."""
    return Reconstruction(cubic_kernel(s.indices, s.values, s.source_length), "pchip")
