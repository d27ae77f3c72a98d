"""Output checks and workload descriptors, computed with numpy outside the
timed runs and independently of the program's own code."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

REFERENCE_FILE = Path(__file__).with_name("reference.json")
RMSE_REL_TOL = 1e-9
DESCRIPTOR_UNITS = {
    "workload.signals": "count",
    "workload.points": "count",
    "workload.kept_fraction": "share",
    "workload.knots_per_signal": "knots",
    "workload.abrupt_share": "share",
    "workload.turn_share": "share",
}


def load_reference(workload: str, seed: int) -> dict[str, float] | None:
    """Stored mean RMSE per method for this workload and seed, if any."""
    table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    return table.get(workload, {}).get(str(seed))


def summary_rmse(report: dict) -> dict[str, float]:
    return {row["method"]: row["mean_rmse"] for row in report["summary"]}


def check_report(report: dict, reference: dict[str, float] | None) -> list[str]:
    """Problems with one report.json: mean RMSE against the stored
    reference, and the sample budget in experiment 2."""
    problems = []
    if reference is not None:
        got = summary_rmse(report)
        if set(got) != set(reference):
            problems.append(f"methods {sorted(got)} differ from the reference {sorted(reference)}")
        for method in sorted(set(got) & set(reference)):
            if not math.isclose(got[method], reference[method], rel_tol=RMSE_REL_TOL, abs_tol=0.0):
                problems.append(
                    f"{method}: mean RMSE {got[method]!r} vs reference {reference[method]!r}")
    if report["config"]["mode"] == "budget":
        for d in report["datasets"]:
            if not d["achieved_fraction"] <= wl.BUDGET:
                problems.append(
                    f"{d['dataset']}: achieved fraction {d['achieved_fraction']!r} > {wl.BUDGET}")
    return problems


def _normalize(v: np.ndarray) -> np.ndarray:
    lo, hi = v.min(), v.max()
    return np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo)


def _send_on_delta(values: list[float], threshold: float) -> list[int]:
    kept = [0]
    ref = values[0]
    for i, v in enumerate(values):
        if i and abs(v - ref) >= threshold:
            kept.append(i)
            ref = v
    return kept


def descriptors(raw: list[list[np.ndarray]], thresholds: list[float]) -> tuple[dict, list[float]]:
    """Exact workload properties of the event-based regime, plus each
    dataset's mean kept fraction for comparison with the report.

    ``abrupt_share`` and ``turn_share`` are shares of the intervals between
    consecutive kept points: abrupt when the jump reaches threshold times the
    tolerance ratio, a turn when the slope sign flips with both neighbouring
    gaps wider than the default distances.
    """
    signals = points = knots = intervals = abrupt = turns = 0
    kept_fractions, per_dataset = [], []
    for group, threshold in zip(raw, thresholds):
        dataset_fractions = []
        for v in group:
            y = _normalize(v)
            idx = np.asarray(_send_on_delta(y.tolist(), threshold))
            ky = y[idx]
            signals += 1
            points += y.size
            knots += idx.size
            dataset_fractions.append(idx.size / y.size)
            jump = np.diff(ky)
            gap = np.diff(idx)
            intervals += jump.size
            abrupt += int(np.count_nonzero((jump != 0.0) & (np.abs(jump) >= threshold * wl.TOLERANCE_RATIO)))
            flips = (np.sign(jump[:-1]) * np.sign(jump[1:]) < 0.0) & (gap[:-1] > wl.PREVIOUS_DISTANCE) & (
                gap[1:] > wl.SUBSEQUENT_MIN_DISTANCE)
            turns += int(np.count_nonzero(flips))
        kept_fractions += dataset_fractions
        per_dataset.append(float(np.mean(dataset_fractions)))
    values = {
        "workload.signals": signals,
        "workload.points": points,
        "workload.kept_fraction": float(np.mean(kept_fractions)),
        "workload.knots_per_signal": knots / signals,
        "workload.abrupt_share": abrupt / max(intervals, 1),
        "workload.turn_share": turns / max(intervals, 1),
    }
    return values, per_dataset


def check_kept_fractions(report: dict, per_dataset: list[float]) -> list[str]:
    """The report's achieved fraction must match the independent sampler."""
    problems = []
    for d, mine in zip(report["datasets"], per_dataset):
        if not math.isclose(d["achieved_fraction"], mine, rel_tol=1e-12, abs_tol=0.0):
            problems.append(
                f"{d['dataset']}: achieved fraction {d['achieved_fraction']!r}, "
                f"independent sampler gives {mine!r}")
    return problems
