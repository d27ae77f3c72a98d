"""The three benchmark workloads: how each builds its inputs and runs once.

A workload's inputs come only from the benchmark seed. ``setup`` builds them
(the part timed as ``setup_s``); ``run`` is one timed operation, from inputs
ready to every report file written. The program is reached through its
public API and CLI only, so nothing here changes when its internals do.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIXED_THRESHOLD = 0.05
BUDGET = 0.15
TOLERANCE_RATIO = 1.15
PREVIOUS_DISTANCE = 3
SUBSEQUENT_MIN_DISTANCE = 3

FAMILIES = ("step", "ramp", "sine", "triangle", "walk")
FAMILY_SIGNALS = 40
FAMILY_LENGTH = 500
WALK_SIGNALS = 20
WALK_LENGTH = 1000
# (dataset name, series length); each gets UCR_ROWS train and UCR_ROWS test rows.
UCR_DATASETS = (("Bumps", 256), ("Sigmoids", 128), ("Waves", 176))  # in CLI discovery order
UCR_ROWS = 150


def sub_seed(seed: int, *keys: int) -> int:
    """A 63-bit seed derived from the benchmark seed and a position."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0] >> 1)


@dataclass
class Inputs:
    """What ``setup`` built: the program's inputs plus the raw signals
    (one float64 array per signal, grouped by dataset) for the checks."""

    program_input: object
    raw: list[list[np.ndarray]]


class Workload:
    name = ""
    regimes = 1  # sampling regimes scored per signal

    def setup(self, lib, seed: int, work_dir: Path) -> Inputs:
        raise NotImplementedError

    def run(self, lib, inputs: Inputs, out_dir: Path) -> None:
        raise NotImplementedError

    def signals(self, inputs: Inputs) -> int:
        return sum(len(group) for group in inputs.raw)


def _config(lib, mode: str):
    bench = lib.bench
    return bench.ExperimentConfig(
        mode=bench.ExperimentMode(mode),
        threshold=FIXED_THRESHOLD,
        target_fraction=BUDGET,
        tolerance_ratio=TOLERANCE_RATIO,
        previous_distance=PREVIOUS_DISTANCE,
        subsequent_min_distance=SUBSEQUENT_MIN_DISTANCE,
    )


def _raw(bundles) -> list[list[np.ndarray]]:
    return [[np.array(ts.values) for ts in b.signals] for b in bundles]


class FixedFamilies(Workload):
    """Experiment 1 on one synthetic dataset per family: reconstruction is
    nearly all of the run, and tuning never runs."""

    name = "fixed-families"

    def setup(self, lib, seed, work_dir):
        bundles = [
            lib.bench.generate_synthetic_corpus(
                sub_seed(seed, i), {fam: FAMILY_SIGNALS}, length=FAMILY_LENGTH, name=fam
            )
            for i, fam in enumerate(FAMILIES)
        ]
        return Inputs(bundles, _raw(bundles))

    def run(self, lib, inputs, out_dir):
        report = lib.bench.run_benchmark(inputs.program_input, _config(lib, "fixed-threshold"))
        lib.bench.emit_report(report, out_dir)


class BudgetWalks(Workload):
    """Experiment 2 on long random walks: threshold tuning and its
    pairwise-difference grid dominate time and memory, and both sampling
    regimes are scored."""

    name = "budget-walks"
    regimes = 2

    def setup(self, lib, seed, work_dir):
        bundles = [
            lib.bench.generate_synthetic_corpus(
                sub_seed(seed, 0), {"walk": WALK_SIGNALS}, length=WALK_LENGTH, name="walks"
            )
        ]
        return Inputs(bundles, _raw(bundles))

    def run(self, lib, inputs, out_dir):
        report = lib.bench.run_benchmark(inputs.program_input, _config(lib, "budget"))
        lib.bench.emit_report(report, out_dir)


def _ucr_row(rng: np.random.Generator, dataset: str, x: np.ndarray, label: int) -> np.ndarray:
    """Smooth class-dependent shapes keeping about 10-15% of points at 0.05."""
    if dataset == "Sigmoids":
        centre, steep = rng.uniform(0.3, 0.7), rng.uniform(8.0, 30.0) * label
        y = 1.0 / (1.0 + np.exp(-steep * (x - centre)))
    elif dataset == "Waves":
        cycles, phase = rng.uniform(0.35, 0.6), rng.uniform(0.0, 2.0 * np.pi)
        y = np.sin(2.0 * np.pi * cycles * x + phase) + 0.1 * label * x
    else:
        centre, width = rng.uniform(0.25, 0.75), rng.uniform(0.05, 0.1) * label
        y = np.exp(-0.5 * ((x - centre) / width) ** 2)
    # raw scale and offset differ per row, so the program's normalisation matters
    return y * rng.uniform(0.5, 20.0) + rng.uniform(-50.0, 50.0)


class UcrCli(Workload):
    """Experiment 1 through the CLI on UCR-format TSV files: the only
    workload that parses files, with many short signals that have few knots."""

    name = "ucr-cli"

    def setup(self, lib, seed, work_dir):
        data_dir = work_dir / "ucr"
        raw = []
        for d, (dataset, length) in enumerate(UCR_DATASETS):
            rng = np.random.default_rng(sub_seed(seed, d))
            x = np.linspace(0.0, 1.0, length)
            folder = data_dir / dataset
            folder.mkdir(parents=True, exist_ok=True)
            rows = []
            for part in ("TRAIN", "TEST"):
                lines = []
                for r in range(UCR_ROWS):
                    label = 1 + r % 3
                    y = _ucr_row(rng, dataset, x, label)
                    rows.append(y)
                    lines.append("\t".join([str(label), *(repr(float(v)) for v in y)]))
                (folder / f"{dataset}_{part}.tsv").write_text("\n".join(lines) + "\n")
            raw.append(rows)
        return Inputs(data_dir, raw)

    def run(self, lib, inputs, out_dir):
        argv = ["bench", "--experiment", "1", "--threshold", repr(FIXED_THRESHOLD),
                "--data-dir", str(inputs.program_input), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = lib.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main({argv}) exited with {code}")


WORKLOADS = {w.name: w for w in (FixedFamilies(), BudgetWalks(), UcrCli())}


class Lib:
    """The program's modules, imported on demand so the import can be timed."""

    def __init__(self):
        import lebesgue_interp.bench as bench
        import lebesgue_interp.cli as cli

        self.bench = bench
        self.cli = cli
