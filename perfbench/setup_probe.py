"""One set-up measurement in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Prints the seconds spent importing ditopo and building the program's
objects from the workload's generated inputs.  Generating the inputs is the
benchmark's own work and is not timed.
"""

import sys
import time
from pathlib import Path

import checkers  # noqa: F401 - the benchmark's own modules load untimed
import gen  # noqa: F401


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import ditopo.cli  # noqa: F401 - the whole package, CLI included
    import_s = time.perf_counter() - t0
    import spans
    import workloads
    workload = workloads.WORKLOADS[name](seed, spans.Tracer(), workdir, src)
    t0 = time.perf_counter()
    workload.build()
    print(import_s + time.perf_counter() - t0)


if __name__ == "__main__":
    main()
