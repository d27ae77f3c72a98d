"""Event-aware reconstructors: ZeLi, ZeLiC, ZeChip and ZeChipC.

Each is a knot plan fed to one kernel from ``baselines``. The plan runs on a
block of signals as the kernels do. It adds to the kept points hold anchors
that keep Abrupt gaps inside the tolerated band the sampler guarantees and,
for the C variants, turn knots that model the slope reversal the sampler
could not see. ZeLi and ZeLiC join the plan with chords, ZeChip and
ZeChipC with a shape-preserving cubic.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .baselines import chord_kernel, cubic_kernel, reconstruct_signal
from .core import ReconstructionParams, SampledSeries

__all__ = [
    "knot_plan",
    "reconstruct_zeli",
    "reconstruct_zelic",
    "reconstruct_zechip",
    "reconstruct_zechipc",
]


def knot_plan(
    x: np.ndarray, y: np.ndarray, first: np.ndarray, params: ReconstructionParams, turns: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kept points plus the planted knots, as (indices, values, first) by index.

    ``x``, ``y`` and ``first`` are a block of signals as the kernels take
    it; gaps run between consecutive knots of one signal. A gap (a, b) is
    Abrupt iff its jump |y_b - y_a| is nonzero and not below
    ``params.tolerance``; an exactly-zero jump is Smooth even at zero
    tolerance. An Abrupt gap gets the hold anchor (b - 1, y_a).

    With ``turns``, a gap is gated when the jumps into a and out of a have
    strictly opposite signs, a - prev > previous_distance, and
    subsequent_min_distance < b - a < subsequent_max_distance; a signal's
    first gap has no incoming jump and never gates. A gated gap gets a turn
    knot at floor((a + b) / 2) whose value is halfway between the chord and
    the band edge y_a - t when the signal fell into a (a dip), or y_a + t
    when it rose (a bump). The turn knot is dropped when it would land on a,
    and the anchor of a gated gap when it would not lie after the turn knot.
    """
    xa, xb, ya = x[:-1], x[1:], y[:-1]
    dx, dy = np.diff(x), np.diff(y)
    gap = ~first[1:]
    jump = np.abs(dy)
    abrupt = gap & (jump != 0.0) & ~(jump < params.tolerance)
    xm = (xa + xb) // 2
    gated = np.zeros(dx.size, dtype=bool)
    if turns:
        sign = np.sign(dy)
        gated[1:] = (
            gap[:-1]
            & gap[1:]
            & (sign[:-1] * sign[1:] < 0.0)
            & (dx[:-1] > params.previous_distance)
            & (dx[1:] > params.subsequent_min_distance)
        )
        if params.subsequent_max_distance is not None:
            gated &= dx < params.subsequent_max_distance
    anchor = abrupt & (xb - 1 > np.where(gated, xm, xa))
    turn = np.flatnonzero(gated & (xm > xa))
    if turn.size == 0 and not anchor.any():  # the kernels then hold no copy of the knots
        return x, y, first
    chord = ya[turn] + dy[turn] * (xm[turn] - xa[turn]) / dx[turn]
    edge = np.where(ya[turn] < y[turn - 1], -params.threshold, params.threshold)
    px = np.concatenate([x, xm[turn], xb[anchor] - 1])
    py = np.concatenate([y, (chord + ya[turn] + edge) / 2.0, ya[anchor]])
    order = np.argsort(px, kind="stable")
    planted = np.zeros(px.size - x.size, dtype=bool)
    return px[order], py[order], np.concatenate([first, planted])[order]


ANCHORS = partial(knot_plan, turns=False)  # kept points plus hold anchors
TURNS = partial(knot_plan, turns=True)  # kept points, hold anchors and turn knots


def reconstruct_zeli(s: SampledSeries, params: ReconstructionParams) -> np.ndarray:
    """Chord on Smooth intervals, hold-then-jump on Abrupt ones."""
    return reconstruct_signal(ANCHORS, chord_kernel, s, params)


def reconstruct_zelic(s: SampledSeries, params: ReconstructionParams) -> np.ndarray:
    """ZeLi plus the slope-reversal knots, joined with straight segments."""
    return reconstruct_signal(TURNS, chord_kernel, s, params)


def reconstruct_zechip(s: SampledSeries, params: ReconstructionParams) -> np.ndarray:
    """Shape-preserving cubic over samples plus Abrupt-interval anchors."""
    return reconstruct_signal(ANCHORS, cubic_kernel, s, params)


def reconstruct_zechipc(s: SampledSeries, params: ReconstructionParams) -> np.ndarray:
    """ZeChip with the slope-reversal knots added before the single cubic pass."""
    return reconstruct_signal(TURNS, cubic_kernel, s, params)
