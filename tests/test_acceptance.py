"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import time

import numpy as np
import pytest

from lebesgue_interp import (
    ExperimentConfig,
    SampleBudget,
    TimeSeries,
    generate_synthetic_corpus,
    lebesgue_sample,
    load_ucr_dataset,
    merge_bundles,
    monte_carlo_convexity_area,
    run_experiment,
    threshold_candidates,
    tune_threshold,
)
from lebesgue_interp.baselines import interp_pchip
from lebesgue_interp.cli import main as cli_main
from lebesgue_interp.core import Knot
from lebesgue_interp.sampling import _bundle_fraction
from lebesgue_interp.zelic import abrupt_limit_condition
from conftest import find_ucr_dataset, make_sampled
from oracles import chord_exits_band, random_walks, trace_send_on_delta

THRESHOLDS = (0.02, 0.05, 0.1)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def walk_corpus():
    return random_walks(seed=2024, count=1000, length=500)


@pytest.fixture(scope="module")
def ordering_corpus():
    """200 signals (50 step / ramp / sine / triangle), length 500, defaults."""
    families = ["step", "ramp", "sine", "triangle"]
    bundles = {
        fam: generate_synthetic_corpus(100 + i, {fam: 50}, length=500, name=fam)
        for i, fam in enumerate(families)
    }
    config = ExperimentConfig()

    def means(bundle):
        rep = run_experiment(bundle, config)
        return {s.method_name: s.mean_rmse for s in rep.summary}

    started = time.perf_counter()
    scores = {
        "full": means(merge_bundles("full", [bundles[f] for f in families])),
        "rampsine": means(merge_bundles("rampsine", [bundles["ramp"], bundles["sine"]])),
        "step": means(bundles["step"]),
        "triangle": means(bundles["triangle"]),
    }
    scores["elapsed"] = time.perf_counter() - started
    return scores


def test_criterion_1_sampling_oracle_equivalence(walk_corpus):
    started = time.perf_counter()
    mismatches = 0
    for walk in walk_corpus:
        values = walk.tolist()
        ts = TimeSeries(walk)
        for t in THRESHOLDS:
            got = lebesgue_sample(ts, t)
            want = trace_send_on_delta(values, t)
            if list(zip(got.indices.tolist(), got.values.tolist())) != want:
                mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        mismatches == 0 and elapsed < 5.0,
        f"1000 walks x 3 thresholds, {mismatches} mismatches, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_tolerated_region_invariant(walk_corpus):
    violations = 0
    for walk in walk_corpus:
        ts = TimeSeries(walk)
        for t in THRESHOLDS:
            s = lebesgue_sample(ts, t)
            idx = s.indices
            for k in range(len(idx) - 1):
                between = walk[idx[k] + 1 : idx[k + 1]]
                if between.size and np.max(np.abs(between - s.values[k])) >= t:
                    violations += 1
    report(2, violations == 0, f"inter-sample containment on 1000 walks, {violations} violations")


def test_criterion_3_limit_condition_proof_equivalence():
    rng = np.random.default_rng(31)
    disagreements = 0
    cases = 10_000
    for _ in range(cases):
        xa = int(rng.integers(0, 100))
        xb = xa + int(rng.integers(1, 60))
        ya = float(rng.uniform(-1, 1))
        # mix flat, gentle and steep exits, plus exact-zero slopes
        yb = ya if rng.random() < 0.05 else float(rng.uniform(-1, 1))
        t = 0.0 if rng.random() < 0.05 else float(rng.uniform(0.0, 0.5))
        fast = abrupt_limit_condition(Knot(xa, ya), Knot(xb, yb), t)
        brute = chord_exits_band(xa, ya, xb, yb, t)
        if fast != brute:
            disagreements += 1
    report(3, disagreements == 0, f"{cases} random intervals, {disagreements} disagreements")


def test_criterion_4_convexity_geometry():
    frac = monte_carlo_convexity_area(1_000_000, seed=41)
    ok = abs(frac - 0.25) <= 0.005
    report(4, ok, f"monte carlo fraction {frac:.5f} within 0.25 +/- 0.005")


def test_criterion_5_pchip_oracle():
    scipy_interp = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 12))
        idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 80), size=k - 1, replace=False))])
        vals = rng.uniform(-1, 1, size=k)
        s = make_sampled(idx, vals, int(idx[-1]) + 1)
        ref = scipy_interp.PchipInterpolator(idx, vals)(np.arange(int(idx[-1]) + 1))
        worst = max(worst, float(np.max(np.abs(interp_pchip(s).values - ref))))
    match_ok = worst <= 1e-9

    line = np.arange(13) * 0.25
    s = make_sampled([0, 4, 8, 12], line[[0, 4, 8, 12]], 13)
    collinear_ok = bool(np.array_equal(interp_pchip(s).values, line))

    mono_ok = True
    envelope_ok = True
    for _ in range(1000):
        k = int(rng.integers(3, 10))
        idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 60), size=k - 1, replace=False))])
        vals = np.sort(rng.uniform(0, 1, size=k))
        if rng.random() < 0.5:
            vals = vals[::-1].copy()
        s = make_sampled(idx, vals, int(idx[-1]) + 1)
        out = interp_pchip(s).values
        diffs = np.diff(out)
        if not (np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)):
            mono_ok = False
        for (xa, ya), (xb, yb) in zip(s.points, s.points[1:]):
            seg = out[xa : xb + 1]
            if seg.min() < min(ya, yb) - 1e-12 or seg.max() > max(ya, yb) + 1e-12:
                envelope_ok = False
    report(
        5,
        match_ok and collinear_ok and mono_ok and envelope_ok,
        f"reference match worst |diff| {worst:.2e} (<= 1e-9); collinear exact: {collinear_ok}; "
        f"monotone preserved: {mono_ok}; envelope held: {envelope_ok}",
    )


def test_criterion_6_method_ordering_desk_scale(ordering_corpus):
    full = ordering_corpus["full"]
    rampsine = ordering_corpus["rampsine"]
    step = ordering_corpus["step"]
    checks = {
        "ZeChipC<=ZeChip": full["ZeChipC"] <= full["ZeChip"],
        "ZeChip<=PCHIP": full["ZeChip"] <= full["PCHIP"],
        "ZeLiC<=ZeLi": full["ZeLiC"] <= full["ZeLi"],
        "ZeLi<=Linear": full["ZeLi"] <= full["Linear"],
        "ZeLi<=ZOH (ramp/sine)": rampsine["ZeLi"] <= rampsine["Zero"],
        "ZeLi<=Linear (step)": step["ZeLi"] <= step["Linear"],
        "runtime<60s": ordering_corpus["elapsed"] < 60.0,
    }
    failed = [name for name, ok in checks.items() if not ok]
    report(
        6,
        not failed,
        f"orderings on 200-signal corpus in {ordering_corpus['elapsed']:.1f}s"
        + (f"; FAILED: {failed}" if failed else ""),
    )


def test_criterion_7_convexity_gain_direction(ordering_corpus):
    tri = ordering_corpus["triangle"]
    gain_li = (tri["ZeLi"] - tri["ZeLiC"]) / tri["ZeLi"]
    gain_chip = (tri["ZeChip"] - tri["ZeChipC"]) / tri["ZeChip"]
    ok = gain_li >= 0.03 and gain_chip >= 0.03
    report(
        7,
        ok,
        f"slope-reversing subset gains: ZeLiC {gain_li:.1%}, ZeChipC {gain_chip:.1%} (>= 3%)",
    )


def test_criterion_8_budget_compliance():
    target = 0.15
    failures = []
    for d in range(10):
        bundle = generate_synthetic_corpus(800 + d, {"walk": 12}, length=400, name=f"walks{d}")
        t, frac = tune_threshold(bundle, SampleBudget(target))
        cands = threshold_candidates(bundle)
        i = int(np.searchsorted(cands, t))
        prev_ok = i == 0 or _bundle_fraction(bundle, float(cands[i - 1])) > target
        if frac > target or not prev_ok:
            failures.append((d, t, frac, prev_ok))
    report(
        8,
        not failures,
        f"10 datasets tuned to <= {target}; next-smaller candidate exceeds budget"
        + (f"; FAILED: {failures}" if failures else ""),
    )


@pytest.mark.skipif(find_ucr_dataset("Adiac") is None, reason="Adiac archive data not present")
def test_criterion_9_adiac_dataset_gated():
    train, test = find_ucr_dataset("Adiac")
    bundle = load_ucr_dataset(train, test)
    report_obj = run_experiment(bundle, ExperimentConfig())
    d = report_obj.datasets[0]
    fraction_ok = abs(d.achieved_fraction - 0.0981) <= 0.005
    winner = min(d.scores, key=lambda s: s.rank_position)
    winner_ok = winner.method_name == "ZeChipC"
    report(
        9,
        fraction_ok and winner_ok,
        f"Adiac sampled fraction {d.achieved_fraction:.4f} (9.81% +/- 0.5pp: {fraction_ok}); "
        f"rank-1 method {winner.method_name} (expect ZeChipC)",
    )


def test_criterion_10_bench_determinism(tmp_path):
    outputs = {}
    for label in ("a", "b"):
        out = tmp_path / label
        code = cli_main(
            ["bench", "--experiment", "1", "--threshold", "0.05",
             "--synthetic", "step=4,sine=4,triangle=4", "--length", "250",
             "--seed", "17", "--out", str(out)]
        )
        assert code == 0
        outputs[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    same_names = set(outputs["a"]) == set(outputs["b"])
    identical = same_names and all(outputs["a"][k] == outputs["b"][k] for k in outputs["a"])
    report(
        10,
        identical,
        f"two bench runs produced byte-identical files: {identical}",
    )
