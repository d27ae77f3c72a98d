"""The interpolation kernels and the four baseline reconstructors.

The kernels run over a block: signals laid end to end on one grid of n
points, given as knot indices on that grid (each signal starts with a knot
at its offset), knot values, and a mask of each signal's first knot. A
kernel maps (x, y, first, j), j[g] being the last knot at or before grid
point g, to values that reproduce the knots; ``reconstruct_block`` then
holds each signal's last knot value to its end (under send-on-delta sampling
the un-fired tail provably stays in the last tolerated band, so holding
minimizes the worst case). It builds a plan's knots, grid map and tail hold
once and runs every kernel given over them in turn; only ``reconstruct_signal``,
which takes raw values, retries what overflows float64. A baseline is a kernel
over one signal's kept points; ``zelic`` adds knot plans.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import SampledSeries

__all__ = [
    "interp_zoh",
    "interp_linear",
    "interp_nearest",
    "interp_pchip",
    "fritsch_carlson_slopes",
    "hermite_fill",
]


def hold_kernel(x, y, first, j):
    """Hold each knot value until the next knot."""
    return y[j]


def nearest_kernel(x, y, first, j):
    """The nearest knot's value; ties go to the earlier knot."""
    # g <= floor(midpoint) is nearer to (or tied with) the earlier knot; none follows the last
    mid = np.append((x[:-1] + x[1:]) // 2, j.size)
    return y[j + (np.arange(j.size) > mid[j])]


def chord_kernel(x, y, first, j):
    """Straight lines between consecutive knots."""
    t = (np.arange(j.size) - x[j]) / np.diff(x, append=j.size)[j]
    out = y[j] + np.diff(y, append=y[-1])[j] * t
    out[x] = y
    return out


def cubic_kernel(x, y, first, j):
    """Shape-preserving piecewise cubic; a signal with one knot is held. The
    cubic also spans each held tail, which the tail hold then overwrites."""
    out = np.empty(j.size, dtype=np.float64)
    hermite_fill(out, x, y, fritsch_carlson_slopes(x, y, first))
    return out


def fritsch_carlson_slopes(x: np.ndarray, y: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Monotonicity-preserving knot slopes for cubic Hermite interpolation.

    Interior knots get the weighted harmonic mean of the two adjacent
    secants and 0 where the secants change sign or vanish; the endpoints
    use the one-sided three-point estimate clamped so the first segment
    cannot overshoot. Two knots get their secant, a lone knot 0. ``first``
    marks each signal's first knot in a block.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    last = np.append(first[1:], True)
    h = np.diff(x)
    d = np.diff(y) / h
    m = np.zeros(x.size, dtype=np.float64)
    d0, d1 = d[:-1], d[1:]
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    same_sign = (d0 != 0.0) & (d1 != 0.0) & ((d0 > 0.0) == (d1 > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        m[1:-1] = np.where(same_sign, (w1 + w2) / (w1 / d0 + w2 / d1), 0.0)
    # both ends of every signal of three or more knots, from the near and far gap
    starts = np.flatnonzero(first[:-2] & ~last[:-2] & ~last[1:-1])
    ends = np.flatnonzero(last[2:] & ~first[2:] & ~first[1:-1]) + 2
    near, far = np.concatenate([starts, ends - 1]), np.concatenate([starts + 1, ends - 2])
    h0, h1, d0, d1 = h[near], h[far], d[near], d[far]
    s = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    clamp = (np.sign(d0) != np.sign(d1)) & (np.abs(s) > 3.0 * np.abs(d0))
    m[np.concatenate([starts, ends])] = np.where(
        np.sign(s) != np.sign(d0), 0.0, np.where(clamp, 3.0 * d0, s)
    )
    two = np.flatnonzero(first[:-1] & ~last[:-1] & last[1:])
    m[two] = m[two + 1] = d[two]
    m[first & last] = 0.0
    return m


def hermite_fill(out: np.ndarray, x: np.ndarray, y: np.ndarray, m: np.ndarray) -> None:
    """Evaluate the piecewise cubic Hermite interpolant on the integer grid.

    Fills out[x[0] .. x[-1]] inclusive; knot values are written exactly. Each
    point is ((h00 y_k + (h h10) m_k) + h01 y_k+1) + (h h11) m_k+1, summed in place.
    """
    x = np.asarray(x, dtype=np.int64)
    lo, hi = int(x[0]), int(x[-1])
    acc = out[lo:hi]
    dx = np.diff(x)
    j = np.repeat(np.arange(dx.size), dx)
    h = dx.astype(np.float64)  # per interval, gathered where used
    t = (np.arange(lo, hi) - x[j]) / h[j]
    w = np.square(1.0 - t)
    np.multiply(1.0 + 2.0 * t, w, out=acc)  # h00
    acc *= y[j]
    w *= t  # h10
    w *= h[j]
    w *= m[j]
    acc += w
    np.square(t, out=w)  # t^2
    h01 = np.subtract(3.0, 2.0 * t)
    h01 *= w
    h01 *= y[1:][j]  # y[1:][j] is y[j + 1] without the index temporary
    acc += h01
    del h01
    t -= 1.0
    t *= w  # h11
    t *= h[j]
    t *= m[1:][j]
    acc += t
    out[x] = y


def reconstruct_block(plan, kernels, x, y, first, n: int, params=None):
    """Each kernel's n grid values for a block, in turn: the kernel over the
    knots ``plan`` makes, (x, y, first, params) -> (x, y, first), or over the
    kept points alone, then each signal's last knot value held to its end.
    The plan, its grid map and its tail hold are built once for all kernels.
    """
    # Precondition: no kernel term overflows. The scorer's values lie in [0, 1] and its threshold
    # is at most about 1, so planted knots lie in [-0.5, 1.5]; raw values go via reconstruct_signal.
    if plan is not None:
        x, y, first = plan(x, y, first, params)
    j = np.repeat(np.arange(x.size), np.diff(x, append=n))
    tail = np.append(first[1:], True)[j]
    held = y[j[tail]]
    for kernel in kernels:
        out = kernel(x, y, first, j)
        out[tail] = held
        yield out
        del out  # the consumer holds the only reference now; let it go before the next kernel


def reconstruct_signal(plan, kernel, s: SampledSeries, params=None) -> np.ndarray:
    """One sampled signal, reconstructed as a block of one. An output that is not finite
    (knot differences overflow) is made again from values and threshold scaled by 2**-e,
    2**e > 16 n, so no term overflows, then scaled back with its kept points written exactly:
    power-of-two scaling commutes with rounding outside the subnormal range."""
    first = np.arange(len(s)) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        for scale in (1.0, 2.0 ** -(int(s.source_length).bit_length() + 4)):
            p = params if plan is None else replace(params, threshold=params.threshold * scale)
            (out,) = reconstruct_block(plan, [kernel], s.indices, s.values * scale, first,
                                       s.source_length, p)
            if np.isfinite(out).all():
                break
        if scale != 1.0:
            out /= scale
            out[s.indices] = s.values
    return out


def interp_zoh(s: SampledSeries) -> np.ndarray:
    """Hold each knot value until the next knot; jump there."""
    return reconstruct_signal(None, hold_kernel, s)


def interp_linear(s: SampledSeries) -> np.ndarray:
    """Straight lines between consecutive knots; constant after the last."""
    return reconstruct_signal(None, chord_kernel, s)


def interp_nearest(s: SampledSeries) -> np.ndarray:
    """Each index copies the nearest knot's value; ties go to the earlier knot."""
    return reconstruct_signal(None, nearest_kernel, s)


def interp_pchip(s: SampledSeries) -> np.ndarray:
    """Shape-preserving piecewise cubic through the knots (two knots: a line)."""
    return reconstruct_signal(None, cubic_kernel, s)
