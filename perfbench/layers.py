"""What the traced run wraps, what each hook counts or checks, and how the
spans become per-layer metrics.

Layers are the program's modules on the bench path. Span names are
``<module>.<function>``; the tail of a timing is the highest percentile with
at least ten samples beyond it.
"""

from __future__ import annotations

import statistics

import numpy as np


def _band(tr, s, series, threshold):
    """Every point the sampler skipped stays strictly inside the band
    around the last kept value."""
    v = series.values
    last_kept = v[s.indices][np.searchsorted(s.indices, np.arange(v.size), side="right") - 1]
    skipped = np.ones(v.size, dtype=bool)
    skipped[s.indices] = False
    if np.any(np.abs(v[skipped] - last_kept[skipped]) >= threshold):
        tr.fail(f"lebesgue_sample left a skipped point outside the band at threshold {threshold!r}")
    tr.count("trace.band_checks")


def _knots(tr, rec, s, *params):
    """Every reconstruction passes through its knots exactly."""
    if not np.array_equal(rec.values[s.indices], s.values):
        tr.fail(f"{rec.method_name} did not reproduce its knots")
    tr.count("trace.knot_checks")


def _candidates(tr, grid, bundle):
    tr.count("sampling.threshold_candidates.candidates", np.size(grid))


def _tuned(tr, result, bundle, budget):
    tr.count("sampling.tune_threshold.signals", len(bundle.signals))


def _hermite(tr, result, out, x, y, m):
    tr.count("baselines.hermite_fill.intervals", len(x) - 1)
    tr.count("baselines.hermite_fill.grid_points", int(x[-1]) - int(x[0]) + 1)


def _parsed(tr, bundle, *args, **kwargs):
    tr.count("bench.load_ucr_dataset.values_parsed", sum(len(ts) for ts in bundle.signals))


def _written(tr, paths, *args, **kwargs):
    tr.count("bench.emit_report.bytes_written", sum(p.stat().st_size for p in paths))


TARGETS = [
    ("core", "normalize_unit_interval", None),
    ("sampling", "lebesgue_sample", _band),
    ("sampling", "riemann_sample", None),
    ("sampling", "threshold_candidates", _candidates),
    ("sampling", "tune_threshold", _tuned),
    *(("baselines", f"interp_{k}", _knots) for k in ("zoh", "linear", "nearest", "pchip")),
    ("baselines", "fritsch_carlson_slopes", None),
    ("baselines", "hermite_fill", _hermite),
    *(("zelic", f"reconstruct_{k}", _knots) for k in ("zeli", "zelic", "zechip", "zechipc")),
    ("metrics", "rmse", None),
    ("metrics", "aggregate_report", None),
    ("bench", "generate_synthetic_corpus", None),
    ("bench", "load_ucr_dataset", _parsed),
    ("bench", "run_experiment", None),
    ("bench", "emit_report", _written),
    ("cli", "main", None),
]

# span -> metrics reported for it; counts named here come from the hooks.
REPORTED = {
    "core.normalize_unit_interval": ("calls", "busy_s"),
    "sampling.lebesgue_sample": ("calls", "busy_s", "p50_us", "tail_us", "tail_pct"),
    "sampling.riemann_sample": ("calls", "busy_s"),
    "sampling.threshold_candidates": ("calls", "busy_s", "candidates"),
    "sampling.tune_threshold": ("busy_s", "self_s", "fraction_evals"),
    **{f"baselines.interp_{k}": ("calls", "busy_s", "p50_us")
       for k in ("zoh", "linear", "nearest", "pchip")},
    "baselines.fritsch_carlson_slopes": ("calls", "busy_s"),
    "baselines.hermite_fill": ("calls", "busy_s", "intervals", "grid_points"),
    **{f"zelic.reconstruct_{k}": ("calls", "busy_s", "self_s", "p50_us", "tail_us", "tail_pct")
       for k in ("zeli", "zelic", "zechip", "zechipc")},
    "metrics.rmse": ("calls", "busy_s"),
    "metrics.aggregate_report": ("busy_s",),
    "bench.generate_synthetic_corpus": ("busy_s",),
    "bench.load_ucr_dataset": ("busy_s", "values_parsed"),
    "bench.run_experiment": ("busy_s", "self_s", "reconstruct_share"),
    "bench.emit_report": ("busy_s", "bytes_written"),
    "cli.main": ("busy_s", "self_s"),
}

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_us": "us", "tail_us": "us",
         "tail_pct": "%", "reconstruct_share": "share"}
RECONSTRUCTION_MODULES = ("baselines.", "zelic.")


def tail_percentile(n: int) -> float:
    """Highest of 99.9/99/90/50 with at least ten of n samples beyond it."""
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def _percentile(sorted_values: list[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    return float(np.percentile(sorted_values, pct, method="inverted_cdf"))


def layer_metrics(tracer, op_runs: list[str], setup_run: str) -> dict[str, tuple[float, str]]:
    """Per-layer values: counts from the first traced operation (they repeat
    exactly), busy and self time as medians over traced operations, and
    per-call percentiles over all their calls."""
    spans = tracer.spans
    by_run: dict[str, dict[str, list]] = {}
    for sp in spans:
        by_run.setdefault(sp.run, {}).setdefault(sp.name, []).append(sp)

    def per_op(fn):
        return statistics.median(fn(by_run.get(r, {})) for r in op_runs)

    def tuned_evals(run_spans):
        nested = 0
        for sp in run_spans.get("sampling.lebesgue_sample", []):
            p = sp.parent
            while p is not None and spans[p].name != "sampling.tune_threshold":
                p = spans[p].parent
            nested += p is not None
        signals = tracer.counts.get((op_runs[0], "sampling.tune_threshold.signals"), 0)
        return nested / signals if signals else 0.0

    def reconstruct_share(run_spans):
        inside = sum(
            sp.duration for name, group in run_spans.items()
            if name.startswith(RECONSTRUCTION_MODULES) for sp in group
            if sp.parent is None or not spans[sp.parent].name.startswith(RECONSTRUCTION_MODULES))
        total = sum(sp.duration for sp in run_spans.get("bench.run_experiment", []))
        return inside / total if total else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name, wanted in REPORTED.items():
        runs = [setup_run] if name == "bench.generate_synthetic_corpus" else op_runs
        durations = sorted(sp.duration for r in runs for sp in by_run.get(r, {}).get(name, []))
        pct = tail_percentile(len(durations))
        for metric in wanted:
            key = f"{name}.{metric}"
            if metric == "calls":
                value = len(by_run.get(op_runs[0], {}).get(name, []))
            elif metric == "busy_s":
                value = statistics.median(
                    sum(sp.duration for sp in by_run.get(r, {}).get(name, [])) for r in runs)
            elif metric == "self_s":
                value = per_op(lambda rs: sum(sp.self_s for sp in rs.get(name, [])))
            elif metric == "p50_us":
                value = _percentile(durations, 50.0) * 1e6
            elif metric == "tail_us":
                value = _percentile(durations, pct) * 1e6
            elif metric == "tail_pct":
                value = pct
            elif metric == "fraction_evals":
                value = per_op(tuned_evals)
            elif metric == "reconstruct_share":
                value = per_op(reconstruct_share)
            else:
                value = tracer.counts.get((op_runs[0], key), 0)
            out[key] = (value, UNITS.get(metric, "count"))
    return out
