"""Tabulate ``python -X importtime`` for ditopo, per module.

    python3 scripts/import_times.py [--src DIR] [--runs 10] [--argv ARG ...]
    python3 scripts/import_times.py --kinds [--src DIR] [--against DIR] [--runs 10] [--seed 1]

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

With ``--kinds``, takes the first round of perfbench's ``cli_oneshot``
requests for the seed, one request per kind, and prints for each kind the
ditopo modules one ``python -m ditopo`` child loads, the bytes of their
source (what the child compiles when no bytecode cache is read), and the
wall time of the child process, min and median over the runs.  With
``--against``, each kind is measured on both source trees, one child of
each in turn.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# runs ``python -m ditopo ARGV`` in-process, then writes the ditopo modules
# it loaded, with their source sizes, to the file named last on its argv
KIND_PROBE = """
import json, os, runpy, sys
out, sys.argv = sys.argv[-1], ["ditopo", *sys.argv[1:-1]]
try:
    runpy.run_module("ditopo", run_name="__main__", alter_sys=True)
except BaseException:
    pass
files = {m: sys.modules[m].__file__ for m in list(sys.modules) if m.split(".")[0] == "ditopo"}
files["ditopo.__main__"] = os.path.join(os.path.dirname(files["ditopo"]), "__main__.py")
with open(out, "w") as fh:
    json.dump({m: os.path.getsize(f) for m, f in files.items()}, fh)
"""


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


def kinds_table(srcs: list, runs: int, seed: int) -> dict:
    """{kind: {argv, src: {modules, source_bytes, wall_ms}}} for one round of
    ``cli_oneshot`` requests; each kind's children alternate between the
    sources, so a drift in machine speed reaches every source alike."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    envs = {src: dict(os.environ, PYTHONPATH=src) for src in srcs}
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        rnd, = gen.write_cli_files(gen.cli_inputs(seed)[:1], Path(tmp))
        for kind, argv, _ in rnd["requests"]:
            row = table[kind] = {"argv": argv}
            walls = {src: [] for src in srcs}
            for src in srcs:
                sizes = Path(tmp) / "sizes.json"
                subprocess.run([sys.executable, "-c", KIND_PROBE, *argv, str(sizes)],
                               env=envs[src], capture_output=True, check=True)
                sizes = json.loads(sizes.read_text())
                row[src] = {"modules": sorted(sizes), "source_bytes": sum(sizes.values())}
            for _ in range(runs):
                for src in srcs:
                    t0 = time.perf_counter()
                    subprocess.run([sys.executable, "-m", "ditopo", *argv], env=envs[src],
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                    walls[src].append((time.perf_counter() - t0) * 1e3)
            for src in srcs:
                row[src]["wall_ms"] = {"min": min(walls[src]),
                                       "median": statistics.median(walls[src])}
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--kinds", action="store_true",
                        help="tabulate modules, source bytes and child wall time per "
                             "cli_oneshot request kind")
    parser.add_argument("--seed", type=int, default=1, help="cli_oneshot seed for --kinds")
    parser.add_argument("--against", help="with --kinds, a second src DIR whose children "
                                          "alternate with those of --src")
    parser.add_argument("--argv", nargs=argparse.REMAINDER,
                        help="run `python -m ditopo ARGV...` instead of `import ditopo.cli`")
    args = parser.parse_args()
    if args.kinds:
        print(json.dumps({"runs": args.runs, "seed": args.seed, "python": sys.version.split()[0],
                          "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                          "kinds": kinds_table([args.src] + ([args.against] if args.against
                                                             else []), args.runs, args.seed)},
                         indent=1))
        return 0
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
