"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import time

import numpy as np
import pytest

from lebesgue_interp import (
    DatasetBundle,
    ExperimentConfig,
    SampleBudget,
    generate_synthetic_corpus,
    load_ucr_dataset,
    run_experiment,
    tune_threshold,
    verify,
)
from lebesgue_interp.baselines import interp_pchip
from lebesgue_interp.cli import main as cli_main
from lebesgue_interp.sampling import threshold_candidates
from conftest import find_ucr_dataset, make_sampled
from oracles import bundle_fraction


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


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

    def merged(name, parts):
        return DatasetBundle(name, [s for b in parts for s in b.signals])

    started = time.perf_counter()
    scores = {
        "full": means(merged("full", [bundles[f] for f in families])),
        "rampsine": means(merged("rampsine", [bundles["ramp"], bundles["sine"]])),
        "step": means(bundles["step"]),
        "triangle": means(bundles["triangle"]),
    }
    scores["elapsed"] = time.perf_counter() - started
    return scores


def test_criterion_1_sampling_oracle_equivalence():
    started = time.perf_counter()
    r = verify.check_sampler_trace(seed=2024, count=1000)
    elapsed = time.perf_counter() - started
    report(1, r.passed and elapsed < 5.0, f"{r.detail}, {elapsed:.2f}s (< 5s)")


def test_criterion_2_tolerated_region_invariant():
    r = verify.check_band(seed=2024, count=1000)
    report(2, r.passed, r.detail)


def test_criterion_3_limit_condition_proof_equivalence():
    r = verify.check_limit_condition(seed=31, cases=10_000)
    report(3, r.passed, r.detail)


def test_criterion_4_convexity_geometry():
    r = verify.check_convexity_area(seed=41, samples=1_000_000)
    report(4, r.passed, r.detail)


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
        worst = max(worst, float(np.max(np.abs(interp_pchip(s) - ref))))
    shape = verify.check_pchip_shape(seed=51, fixtures=1000)
    report(
        5,
        worst <= 1e-9 and shape.passed,
        f"reference match worst |diff| {worst:.2e} (<= 1e-9); {shape.detail}",
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
        prev_ok = i == 0 or bundle_fraction(bundle, float(cands[i - 1])) > target
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
    winner = d.scores[0]
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
