"""One fresh process that times package import plus input building.

Started by run.py as ``python3 perfbench/child.py <workload> <seed> <work dir>``
from the repository root; prints ``{"setup_s": ...}``. Nothing heavy is
imported before the clock starts.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    t0 = time.perf_counter()
    name, seed, work_dir = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    workloads.WORKLOADS[name].setup(workloads.Lib(), seed, work_dir)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main(sys.argv[1:])
