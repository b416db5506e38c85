"""Tabulate ``python -X importtime`` for ditopo, per module.

    python3 scripts/import_times.py [--src DIR] [--runs 10] [--argv ARG ...]

Imports ditopo from DIR (default: this checkout's ``src``), so the same
script measures two checkouts.  Each run is a fresh interpreter.  Without
``--argv`` a run is ``import ditopo.cli``; with it, a run is the command
``python -X importtime -m ditopo ARG ...``, which imports what that one
subcommand loads.  ``--argv`` takes every argument after it.

For every ditopo module, and for every top-level package outside the
standard library that the run pulls in (not those the interpreter loads at
start-up), prints the median and the minimum over the runs of the self and
cumulative import times, in microseconds, as one JSON object.
``total_us`` sums the cumulative times of the imports that the run makes
after start-up and that no other import made, so it covers every module
the command loaded, including the standard-library ones.  Bytecode is
read or written as the environment says (``PYTHONDONTWRITEBYTECODE``,
``PYTHONPYCACHEPREFIX``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def one_run(src: str, argv) -> tuple:
    """({module: (self us, cumulative us)}, total us) of one fresh run."""
    env = dict(os.environ, PYTHONPATH=src)
    if argv is None:
        command = ["-c", "import ditopo.cli"]
    else:
        command = ["-m", "ditopo", *argv]
    proc = subprocess.run([sys.executable, "-X", "importtime", *command],
                          env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1, 2):
        raise RuntimeError(f"run failed with exit {proc.returncode}: {proc.stderr[-500:]}")
    # the interpreter's own start-up imports end with the top-level ``site``
    lines = proc.stderr.splitlines()
    start = next(i for i, line in enumerate(lines) if line.endswith("| site")) + 1
    times, total = {}, 0
    for line in lines[start:]:
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not name.startswith("  "):   # imported by no other import
            total += int(cumulative_us)
        name = name.strip()
        top = name.split(".")[0]
        if top == "ditopo" or (top not in sys.stdlib_module_names and name == top):
            times[name] = (int(self_us), int(cumulative_us))
    return times, total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--argv", nargs=argparse.REMAINDER,
                        help="run `python -m ditopo ARGV...` instead of `import ditopo.cli`")
    args = parser.parse_args()
    runs, totals = zip(*(one_run(args.src, args.argv) for _ in range(args.runs)))
    table = {}
    for name in runs[0]:
        selfs = [r[name][0] for r in runs if name in r]
        cumulative = [r[name][1] for r in runs if name in r]
        table[name] = {"self_us_median": statistics.median(selfs), "self_us_min": min(selfs),
                       "cumulative_us_median": statistics.median(cumulative),
                       "cumulative_us_min": min(cumulative)}
    print(json.dumps({"runs": args.runs, "argv": args.argv,
                      "total_us": {"median": statistics.median(totals), "min": min(totals)},
                      "modules": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
