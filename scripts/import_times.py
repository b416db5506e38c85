"""Tabulate ``python -X importtime`` for ``import ditopo.cli``, per module.

    python3 scripts/import_times.py [--src DIR] [--runs 10]

Imports ditopo from DIR (default: this checkout's ``src``), so the same
script measures two checkouts.  Each run is a fresh interpreter.  For every
ditopo module, and for every top-level package outside the standard library
that the import pulls in (not those the interpreter loads at start-up),
prints the median and the minimum over the runs of the self and cumulative
import times, in microseconds, as one JSON object.  ``total_us`` is the
entry of ``ditopo.cli``, whose cumulative time contains all the others.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def one_run(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    # the marker separates the interpreter's own start-up imports from ours
    code = "import sys; print('MARK', file=sys.stderr, flush=True); import ditopo.cli"
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                         env=env, capture_output=True, text=True, check=True).stderr
    times = {}
    for line in err.split("MARK\n", 1)[1].splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        top = name.split(".")[0]
        if top == "ditopo" or (top not in sys.stdlib_module_names and name == top):
            times[name] = (int(self_us), int(cumulative_us))
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    runs = [one_run(args.src) for _ in range(args.runs)]
    table = {}
    for name in runs[0]:
        selfs = [r[name][0] for r in runs if name in r]
        cumulative = [r[name][1] for r in runs if name in r]
        table[name] = {"self_us_median": statistics.median(selfs), "self_us_min": min(selfs),
                       "cumulative_us_median": statistics.median(cumulative),
                       "cumulative_us_min": min(cumulative)}
    print(json.dumps({"runs": args.runs, "total_us": table["ditopo.cli"],
                      "modules": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
