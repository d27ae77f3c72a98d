"""Regenerate reference.json: each method's mean RMSE per workload and seed.

    python3 perfbench/make_reference.py [first_seed] [last_seed]

Run from the repository root, on a commit whose results are trusted. The
benchmark compares every report against these values (relative 1e-9), so
regenerate only when a workload's inputs change on purpose.
"""

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import checks
import workloads


def main(argv: list[str]) -> None:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 99)
    os.environ["LEBESGUE_INTERP_THREADS"] = "1"
    lib = workloads.Lib()
    work = Path.cwd() / ".perfbench" / f"reference-{os.getpid()}"
    table = json.loads(checks.REFERENCE_FILE.read_text()) if checks.REFERENCE_FILE.exists() else {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            for seed in range(first, last + 1):
                inputs = workload.setup(lib, seed, work / "inputs")
                workload.run(lib, inputs, work / "out")
                report = json.loads((work / "out" / "report.json").read_text())
                table.setdefault(name, {})[str(seed)] = checks.summary_rmse(report)
                shutil.rmtree(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = ",\n".join(
        f'  "{name}": {{\n' + ",\n".join(
            f'    "{seed}": {json.dumps(row)}'
            for seed, row in sorted(rows.items(), key=lambda kv: int(kv[0]))) + "\n  }"
        for name, rows in table.items())
    checks.REFERENCE_FILE.write_text("{\n" + lines + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
