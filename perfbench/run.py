"""Benchmark of lebesgue-interp: the paper's RMSE protocol, timed end to end
and per module from outside the program.

    python3 perfbench/run.py --workload fixed-families --seed 0 --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json: repeated runs at the default worker count, with fresh
processes timing set-up spread over the same period. ``--trace 1`` reports the
per-layer metrics: it interleaves untraced runs at the default worker count,
untraced single-thread runs and traced single-thread runs, and writes the
spans to ``.perfbench/``. Every run's report.json is checked; the last line
of standard output is the result object, the line before it the run's
provenance and samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import checks
import layers
import workloads
from tracer import Tracer

THREADS_ENV = "LEBESGUE_INTERP_THREADS"
SETUP_SAMPLES = 8  # fresh processes timing set-up, spread over the measured period
MIN_TIMED_RUNS = 3
MAX_FAILED_RUNS = 10
MAX_PROBLEMS_SHOWN = 5  # per failed run
CHILD_TIMEOUT_S = 120


def cpus() -> int:
    """CPUs this process may run on: the program's default worker count here."""
    return len(os.sched_getaffinity(0))


class Bench:
    """One workload at one seed: its inputs, the reference report bytes and
    the tally of attempted and failed runs."""

    def __init__(self, root: Path, workload: workloads.Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        self.lib = workloads.Lib()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ref_bytes: bytes | None = None
        self.reference_checked = False

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        shown = problems[:MAX_PROBLEMS_SHOWN]
        if len(problems) > len(shown):
            shown.append(f"and {len(problems) - len(shown)} more")
        self.problems += [f"{label}: {p}" for p in shown]

    def op(self, threads: int, label: str, tracer: Tracer | None = None) -> float | None:
        """One run from inputs ready to reports written at ``threads``
        workers; its wall seconds, or None when it raised, broke an
        invariant or wrote a report.json unlike the first run's."""
        self.attempted += 1
        os.environ[THREADS_ENV] = str(threads)
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        seen = len(tracer.failures) if tracer else 0
        try:
            if tracer:
                tracer.install(layers.TARGETS)
            try:
                t0 = time.perf_counter()
                self.workload.run(self.lib, self.inputs, out_dir)
                elapsed = time.perf_counter() - t0
            finally:
                if tracer:
                    tracer.uninstall()
            data = (out_dir / "report.json").read_bytes()
        except Exception:
            self.fail(label, [f"raised\n{traceback.format_exc()}"])
            return None
        if tracer and len(tracer.failures) > seen:
            self.fail(label, tracer.failures[seen:])
            return None
        if self.ref_bytes is None:
            self.ref_bytes = data
        elif data != self.ref_bytes:
            self.fail(label, ["report.json differs from the single-thread warm-up's"])
            return None
        return elapsed

    def prepare(self, tracer: Tracer | None = None) -> dict:
        """Build the inputs, run the single-thread warm-up whose report every
        later run must reproduce byte for byte, check that report, and
        return the workload descriptors."""
        if tracer:
            tracer.run = "setup"
            tracer.install(layers.TARGETS)
        try:
            self.inputs = self.workload.setup(self.lib, self.seed, self.work / "inputs")
        finally:
            if tracer:
                tracer.uninstall()
        if self.op(1, "single-thread warm-up") is None:
            raise RuntimeError("warm-up run failed:\n" + "\n".join(self.problems))
        report = json.loads(self.ref_bytes)
        values, per_dataset = checks.descriptors(
            self.inputs.raw, [d["threshold"] for d in report["datasets"]])
        reference = checks.load_reference(self.workload.name, self.seed)
        self.reference_checked = reference is not None
        problems = checks.check_report(report, reference)
        problems += checks.check_kept_fractions(report, per_dataset)
        if problems:
            self.fail("single-thread warm-up", problems)
        return values

    def setup_in_fresh_process(self, k: int) -> float:
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")), self.workload.name,
               str(self.seed), str(self.work / f"child{k}")]
        done = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr}")
        return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def git_rev(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(bench: Bench, seconds: float, info: dict) -> dict:
    """Timed runs at the default worker count for ``seconds``, with the
    set-up processes spread over the same period so both meet the same
    machine conditions."""
    info["workload_descriptors"] = bench.prepare()
    times, setups = [], []
    start = time.perf_counter()
    while bench.failed <= MAX_FAILED_RUNS:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_SAMPLES and elapsed >= seconds * len(setups) / SETUP_SAMPLES:
            setups.append(bench.setup_in_fresh_process(len(setups)))
            continue
        typical = statistics.median(times) if times else 0.0
        if len(times) >= MIN_TIMED_RUNS and elapsed + typical > seconds:
            break
        t = bench.op(cpus(), f"run {len(times)}")
        if t is not None:
            times.append(t)
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.setup_in_fresh_process(len(setups)))
    info["run_s_samples"] = times
    info["setup_s_samples"] = setups
    run_s = statistics.median(times) if times else 0.0
    signals = bench.workload.signals(bench.inputs) * bench.workload.regimes
    return {
        "run_s": (run_s, "s"),
        "signals_per_s": (signals / run_s if run_s else 0.0, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        # this process ran only this workload, so its peak is the workload's
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (1.0 - bench.failed / bench.attempted, "share"),
    }


def per_layer(bench: Bench, seconds: float, info: dict) -> dict:
    """Cycles of (default-worker, single-thread, traced single-thread) runs,
    rotated each cycle so drift in machine speed falls on all three."""
    tracer = Tracer()
    descriptors = bench.prepare(tracer)
    timed: dict[str, list[float]] = {"default": [], "single": [], "traced": []}
    op_runs = []
    start = time.perf_counter()
    cycle = 0
    while bench.failed <= MAX_FAILED_RUNS and (
            not op_runs or (time.perf_counter() - start) * (cycle + 1) / cycle < seconds):
        kinds = ["default", "single", "traced"]
        for kind in kinds[cycle % 3:] + kinds[:cycle % 3]:
            if kind == "traced":
                tracer.run = f"op{cycle}"
                op_runs.append(tracer.run)
                t = bench.op(1, tracer.run, tracer)
            else:
                t = bench.op(cpus() if kind == "default" else 1, f"{kind} {cycle}")
            if t is not None:
                timed[kind].append(t)
        cycle += 1
    med = {k: statistics.median(v) if v else 0.0 for k, v in timed.items()}
    out = layers.layer_metrics(tracer, op_runs, "setup")
    out["bench.pool.speedup"] = (med["single"] / med["default"] if med["default"] else 0.0, "ratio")
    out["trace.overhead_s"] = (med["traced"] - med["single"], "s")
    for check in ("trace.knot_checks", "trace.band_checks"):
        out[check] = (tracer.counts.get((op_runs[0], check), 0), "count")
    out["trace.absent"] = (len(tracer.absent), "count")
    for key, value in descriptors.items():
        out[key] = (value, checks.DESCRIPTOR_UNITS[key])
    info["absent"] = tracer.absent
    info["hook_errors"] = sorted(tracer.hook_errors)
    info["run_s_medians"] = med
    info["samples"] = {k: len(v) for k, v in timed.items()}
    spans_file = bench.root / ".perfbench" / f"spans-{bench.workload.name}-seed{bench.seed}.jsonl"
    with spans_file.open("w") as fh:
        for i, sp in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": sp.name, "start": sp.start, "end": sp.end,
                                 "parent": sp.parent, "thread": sp.thread, "run": sp.run}) + "\n")
    info["spans_file"] = str(spans_file.relative_to(bench.root))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    spec_file = root / "BENCHMARK.json"
    if not (src / "lebesgue_interp" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: run from the repository root; {src / 'lebesgue_interp'} or "
              f"{spec_file} is missing", file=sys.stderr)
        return 2
    wanted = [m["name"] for m in json.loads(spec_file.read_text())[
        "per_layer" if args.trace else "end_to_end"]]
    sys.path.insert(0, str(src))

    bench = Bench(root, workloads.WORKLOADS[args.workload], args.seed)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(root), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": cpus(), "cpu_count": os.cpu_count(),
    }
    try:
        bench.work.mkdir(parents=True, exist_ok=True)
        measured = (per_layer if args.trace else end_to_end)(bench, args.seconds, info)
        worker_count = getattr(bench.lib.bench, "worker_count", None)
        os.environ[THREADS_ENV] = str(cpus())
        info["workers"] = worker_count() if worker_count else "absent"
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    missing = [name for name in wanted if name not in measured]
    extra = [name for name in measured if name not in wanted]
    if missing or extra:
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 1
    for problem in bench.problems:
        print(problem, file=sys.stderr)
    info["reference_checked"] = bench.reference_checked
    info["failed_ops"] = bench.failed / bench.attempted
    info["problems"] = [p.splitlines()[0] for p in bench.problems]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": measured[name][0], "unit": measured[name][1]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
