"""The interpolation kernels and the four baseline reconstructors.

The kernels run over a block: signals laid end to end on one grid of n
points, given as knot indices on that grid (each signal starts with a knot
at its offset), knot values, and a mask of each signal's first knot. A
kernel maps (x, y, first, grid) to values that reproduce the knots, where
``grid`` (a ``Grid``) gives each grid point g its knot j, the last at or
before g (as each knot's run width, the grid map), the knot value y[j], the
interval width h[j] and the position t = (g - x[j]) / h[j]. The cubic kernel
and ``hermite_fill`` share one Hermite arithmetic. ``reconstruct_block``
builds a plan's knots, its one grid and its tail hold once, runs every kernel
given over them in turn, and holds each signal's last knot value to its end
(under send-on-delta sampling the un-fired tail provably stays in the last
tolerated band, so holding minimizes the worst case); only
``reconstruct_signal``, which takes raw values, retries what overflows
float64. A baseline is a kernel over one signal's kept points; ``zelic`` adds
knot plans.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

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


class Grid:
    """The grid points x[0] .. n - 1 of knots x and values y, which every kernel of one knot
    plan reads. The grid map is ``widths``: knot k's interval holds the widths[k] points
    x[k] .. x[k + 1] - 1 (the last knot's, those up to n - 1), so an array over the knots
    becomes one over the grid as np.repeat(a, widths). For each point g of knot j's interval,
    ``y`` is y[j], ``h`` the interval's width as a float and ``t`` the position
    (g - x[j]) / h; ``h`` and ``t`` are built on first use."""

    def __init__(self, x: np.ndarray, y: np.ndarray, n: int):
        self.x = x
        self.widths = np.diff(x, append=n)
        self.y = np.repeat(y, self.widths)

    @cached_property
    def h(self) -> np.ndarray:
        return np.repeat(self.widths.astype(np.float64), self.widths)

    @cached_property
    def t(self) -> np.ndarray:
        # g - x[j] is exact in float64, so this is the int64 quotient (g - x[j]) / h[j]
        t = np.arange(self.x[0], self.x[0] + self.y.size, dtype=np.float64)
        t -= np.repeat(self.x, self.widths)
        t /= self.h
        return t


def hold_kernel(x, y, first, grid):
    """Hold each knot value until the next knot: the grid's own knot values."""
    return grid.y


def nearest_kernel(x, y, first, grid):
    """The nearest knot's value; ties go to the earlier knot."""
    # an interval's first w // 2 + 1 points are nearer to (or tied with) its left knot, the rest
    # to its right one; the last knot's right one is itself
    w = grid.widths
    left = w // 2 + 1
    counts = np.column_stack([left, w - left]).ravel()
    return np.repeat(np.column_stack([y, np.append(y[1:], y[-1])]).ravel(), counts)


def chord_kernel(x, y, first, grid):
    """Straight lines between consecutive knots."""
    out = np.repeat(np.diff(y, append=y[-1]), grid.widths)
    out *= grid.t
    out += grid.y
    out[x] = y
    return out


def cubic_kernel(x, y, first, grid):
    """Shape-preserving piecewise cubic; a signal with one knot is held. The
    cubic also spans each held tail, which the tail hold then overwrites."""
    out = np.empty(grid.y.size, dtype=np.float64)
    _hermite(out[: x[-1]], grid, y, fritsch_carlson_slopes(x, y, first))
    out[x] = y
    return out


def fritsch_carlson_slopes(x: np.ndarray, y: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Monotonicity-preserving knot slopes for cubic Hermite interpolation.

    Interior knots get the weighted harmonic mean of the two adjacent
    secants and 0 where the secants change sign or vanish; the endpoints
    use the one-sided three-point estimate clamped so the first segment
    cannot overshoot. Two knots get their secant, a lone knot 0. ``first``
    marks each signal's first knot in a block. The knot indices ``x`` are
    integers, so every gap sum below is exact: the mean's numerator
    3 (h0 + h1) equals w1 + w2 bit for bit.
    """
    y = np.asarray(y, dtype=np.float64)
    last = np.append(first[1:], True)
    h = np.diff(np.asarray(x, dtype=np.float64))
    d = np.diff(y)
    d /= h
    d0, d1 = d[:-1], d[1:]
    # the interior mean (w1 + w2) / (w1 / d0 + w2 / d1), w1 = 2 h1 + h0 and w2 = h1 + 2 h0,
    # built in place: a block of dense knots holds fewer knot-sized temporaries at once
    w1 = 2.0 * h[1:]
    w1 += h[:-1]
    w2 = 2.0 * h[:-1]
    w2 += h[1:]
    same_sign = (d0 != 0.0) & (d1 != 0.0) & ((d0 > 0.0) == (d1 > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 /= d0
        w2 /= d1
        w1 += w2
        np.add(h[:-1], h[1:], out=w2)
        w2 *= 3.0  # w1 + w2 = 3 (h0 + h1), built in w2 once it is spent
        w2 /= w1
    del w1
    m = np.zeros(y.size, dtype=np.float64)
    np.copyto(m[1:-1], w2, where=same_sign)
    del w2
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
    _hermite(out[x[0] : x[-1]], Grid(x, y, x[-1]), y, m)
    out[x] = y


def _hermite(acc: np.ndarray, grid: Grid, y: np.ndarray, m: np.ndarray) -> None:
    """The cubic Hermite interpolant of knot values y and slopes m on the first acc.size
    points of ``grid``, which end at the last knot, summed into acc as ``hermite_fill`` says."""
    t, h, w = grid.t[: acc.size], grid.h[: acc.size], grid.widths[: y.size - 1]
    sq = np.subtract(1.0, t)
    np.square(sq, out=sq)
    np.multiply(t, 2.0, out=acc)
    acc += 1.0
    acc *= sq  # h00
    acc *= grid.y[: acc.size]
    sq *= t  # h10
    sq *= h
    sq *= np.repeat(m[:-1], w)
    acc += sq
    np.square(t, out=sq)  # t^2
    p = np.multiply(t, 2.0)
    np.subtract(3.0, p, out=p)
    p *= sq  # h01
    p *= np.repeat(y[1:], w)
    acc += p
    np.subtract(t, 1.0, out=p)
    p *= sq  # h11
    p *= h
    p *= np.repeat(m[1:], w)
    acc += p


def reconstruct_block(plan, kernels, x, y, first, n: int, params=None, grid=None):
    """Each kernel's n grid values for a block, in turn: the kernel over the
    knots ``plan`` makes, (x, y, first, params) -> (x, y, first), or over the
    kept points alone, then each signal's last knot value held to its end.
    The plan, its grid and its tail hold are built once for all kernels; with
    no plan, ``grid`` may be the kept points' grid, built by the caller.

    The hold kernel's output is the grid's own ``y``: write to no output
    before the last kernel has run.
    """
    # Precondition: no kernel term overflows. The scorer's values lie in [0, 1] and its threshold
    # is at most about 1, so planted knots lie in [-0.5, 1.5]; raw values go via reconstruct_signal.
    if plan is not None:
        x, y, first = plan(x, y, first, params)
    if grid is None:
        grid = Grid(x, y, n)
    tail = np.repeat(np.append(first[1:], True), grid.widths)
    held = grid.y[tail]
    for kernel in kernels:
        out = kernel(x, y, first, grid)
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
