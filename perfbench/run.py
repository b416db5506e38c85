"""The ditopo benchmark: one named workload, single-threaded, closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One op runs at a time in this process (``cli_oneshot``: one ``ditopo``
child process at a time).  Every op's output is checked by the benchmark's
own checkers, outside the timed span.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced run (see README.md).  Result and trace files
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# A high percentile with at least ten ops beyond it at the op counts one
# 20-second run reaches (see README.md).
TAIL_PERCENTILE = {"certify": 94, "graph_scale": 87, "concurrency": 90, "cli_oneshot": 84}
SETUP_PROBES = 5
CHILD_PROBES = 5
# Ops each other workload runs in a traced run, so that every layer is seen.
TRACE_SIDE_OPS = {"certify": 13, "graph_scale": 2, "concurrency": 6, "cli_oneshot": 16}

# per-layer metric -> (unit, owning workload, span name, statistic)
LAYER_SPANS = {
    "cli.main_ms": ("ms", "cli_oneshot", "cli.main", "mean"),
    "core.check_section_ms": ("ms", "certify", "core.check_section", "mean"),
    "core.check_patch_continuity_ms": ("ms", "certify", "core.check_patch_continuity", "mean"),
    "core.path_sup_distance_us": ("us", "certify", "core.path_sup_distance", "mean"),
    "core.path_sup_distance_calls": ("count", "certify", "core.path_sup_distance", "calls"),
    "core.sample_pair_us": ("us", "certify", "core.sample_pair", "mean"),
    "core.sample_pair_calls": ("count", "certify", "core.sample_pair", "calls"),
    "graph.gamma_ms": ("ms", "graph_scale", "graph.gamma", "mean"),
    "graph.ditc_ms": ("ms", "graph_scale", "graph.ditc", "mean"),
    "graph.plan_ms": ("ms", "graph_scale", "graph.plan", "mean"),
    "graph.plan_calls": ("count", "graph_scale", "graph.plan", "calls"),
    "graph.traces_between_ms": ("ms", "graph_scale", "graph.traces_between", "mean"),
    "graph.build_planner_ms": ("ms", "certify", "graph.build_planner", "mean"),
    "graph.membership_us": ("us", "certify", "graph.membership", "mean"),
    "graph.membership_calls": ("count", "certify", "graph.membership", "calls"),
    "product.torus_check_section_ms": ("ms", "certify", "product.torus_check_section", "mean"),
    "pv.schedule_ms": ("ms", "concurrency", "pv.schedule", "mean"),
    "pv.membership_ms": ("ms", "concurrency", "pv.membership", "mean"),
    "sphere.gamma_us": ("us", "cli_oneshot", "sphere.gamma", "mean"),
    "sphere.planner_check_section_ms": ("ms", "certify", "sphere.planner_check_section", "mean"),
    "nathom.diagram_ms": ("ms", "concurrency", "nathom.diagram", "mean"),
    "nathom.point_check_ms": ("ms", "concurrency", "nathom.point_check", "mean"),
    "nathom.bisimulation_ms": ("ms", "concurrency", "nathom.bisimulation", "mean"),
}
# per-layer metric -> (unit, owning workload, counter name): mean per sample
LAYER_COUNTERS = {
    "pv.schedule_points": ("count", "concurrency", "pv.schedule_points"),
    "nathom.objects": ("count", "concurrency", "nathom.objects"),
    "nathom.morphisms": ("count", "concurrency", "nathom.morphisms"),
}
# per-layer metric -> python code whose stdout is the seconds it measured
CHILD_TIMINGS = {
    "cli.import_ms": "import time; t = time.perf_counter(); import ditopo.cli; "
                     "print(time.perf_counter() - t)",
    "cli.import_numpy_ms": "import time; t = time.perf_counter(); import numpy; "
                           "print(time.perf_counter() - t)",
}
SCALE = {"ms": 1e3, "us": 1e6}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _child_seconds(argv) -> float:
    out = subprocess.run(argv, env=_child_env(), capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class WorkReference:
    """Times a fixed piece of pure-Python work: the speed of this core.

    The machine's speed drifts by tens of percent over tens of seconds (on
    shared cores), which would swamp any bound.  Timing a fixed task between
    ops tracks that drift, so op times can be given at a nominal speed.  The
    task mixes integer arithmetic with building a set and a dict of tuples,
    because ditopo's ops slow down with both, and not in step.
    """

    nominal_s = 0.006

    def __call__(self) -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(30_000):
            x += i
        keys, index = set(), {}
        for i in range(6_000):
            key = (i, i * 7 % 101)
            keys.add(key)
            index[key] = i
        for key in keys:
            x += index[key]
        return time.perf_counter() - t0


class StartReference:
    """Times a bare interpreter start (``python -c pass``): the speed of
    process start and module loading, which dominate work in children."""

    nominal_s = 0.080

    def __call__(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=_child_env(), check=True)
        return time.perf_counter() - t0


def normalised(durations, refs, nominal_s: float) -> list:
    """Scale each duration to the nominal machine speed.

    ``refs[k]`` was timed just before ``durations[k]`` and ``refs[-1]``
    after the last one; the speed at duration k is the median of the
    reference times around it, which ignores a reference run that an
    interrupt happened to slow down.
    """
    return [d * nominal_s / statistics.median(refs[max(0, k - 4):k + 6])
            for k, d in enumerate(durations)]


class Pass:
    """Latencies and check outcomes of one sequence of ops."""

    def __init__(self, nominal_s: float):
        self.latencies: list = []      # wall seconds, as measured
        self.refs: list = []           # reference times before each op and after the last
        self.nominal_s = nominal_s
        self.failed = 0
        self.unexpected: list = []

    def normalised(self) -> list:
        return normalised(self.latencies, self.refs, self.nominal_s)


def run_ops(workload, tracer, budget_s=None, count=None) -> Pass:
    """Closed loop over the workload's pool in whole rounds, until the op
    times at nominal speed add up to budget_s or count ops have run."""
    reference = WorkReference() if workload.in_process else StartReference()
    result = Pass(reference.nominal_s)
    used = 0.0
    i = 0
    while True:
        for _ in range(workload.round_size):
            inp = workload.pool[i % len(workload.pool)]
            result.refs.append(reference())
            with tracer.op(workload.name, i):
                t0 = time.perf_counter()
                try:
                    out, error = workload.run(inp), None
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    out, error = None, exc
                result.latencies.append(time.perf_counter() - t0)
            used += result.latencies[-1] * reference.nominal_s / result.refs[-1]
            with tracer.paused():
                try:
                    problems = [f"op raised {error!r}"] if error else workload.check(inp, out)
                except Exception as exc:  # noqa: BLE001 - a crashing check rejects
                    problems = [f"check raised {exc!r}"]
            if problems:
                result.failed += 1
                if not workload.is_fault(inp):
                    result.unexpected.append({"op": i, "problems": problems[:5]})
            i += 1
        if (count is not None and len(result.latencies) >= count) or \
                (budget_s is not None and used >= budget_s):
            result.refs.append(reference())
            return result


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(lat, percentile_p: int) -> dict:
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, percentile_p) * 1e3, "ms"),
    }


def measured(workload, tracer, seconds: float, setup: tuple) -> tuple:
    run = run_ops(workload, tracer, budget_s=seconds)
    if workload.name == "cli_oneshot":
        rss_kb = workload.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = TAIL_PERCENTILE[workload.name]
    metrics = {"setup_s": (statistics.median(setup[1]), "s"),
               **end_to_end(run.normalised(), tail),
               "peak_rss_mb": (rss_kb / 1024, "MB")}
    raw = {"setup_s": statistics.median(setup[0]),
           **{k: v for k, (v, _) in end_to_end(run.latencies, tail).items()}}
    detail = {"ops": len(run.latencies), "tail_percentile": tail, "raw_metrics": raw,
              "latencies_ms": [x * 1e3 for x in run.latencies],
              "refs_ms": [x * 1e3 for x in run.refs]}
    return run, [run], metrics, detail


def traced(workload, tracer, seconds: float, workloads, workdir) -> tuple:
    """Untraced then traced over the same ops of the named workload, then a
    few traced ops of every other workload so that every layer is seen."""
    if workload.name == "cli_oneshot":
        workload.in_process = True
    plain = run_ops(workload, tracer, budget_s=seconds / 2)
    tracer.install()
    try:
        main = run_ops(workload, tracer, count=len(plain.latencies))
        side = []
        for name, cls in workloads.WORKLOADS.items():
            if name == workload.name:
                continue
            other = cls(workload.seed, tracer, workdir / name, SRC)
            other.in_process = True     # cli_oneshot: run cli.main in this process
            side.append(run_ops(other, tracer, count=TRACE_SIDE_OPS[name]))
    finally:
        tracer.uninstall()
    overhead = sum(main.normalised()) / sum(plain.normalised()) - 1.0

    metrics = {}
    for name, (unit, owner, span, stat) in LAYER_SPANS.items():
        calls, total = tracer.totals(owner, span)
        if stat == "calls":
            value = calls / tracer.ops[owner]
        else:
            value = total / calls * SCALE[unit] if calls else 0.0
        metrics[name] = (value, unit)
    for name, (unit, owner, counter) in LAYER_COUNTERS.items():
        total, samples = tracer.counter(owner, counter)
        metrics[name] = (total / samples if samples else 0.0, unit)
    used, _ = tracer.counter("certify", "core.pairs_used")
    requested, _ = tracer.counter("certify", "core.pairs_requested")
    metrics["core.continuity_pairs_used_ratio"] = (used / requested, "ratio")
    start = StartReference()
    starts = [start() for _ in range(CHILD_PROBES)]
    metrics["cli.python_start_ms"] = (statistics.median(starts) * 1e3, "ms")
    for name, code in CHILD_TIMINGS.items():
        times = [_child_seconds([sys.executable, "-c", code]) for _ in range(CHILD_PROBES)]
        metrics[name] = (statistics.median(times) * 1e3, "ms")

    detail = {"ops_untraced": len(plain.latencies), "ops_traced": len(main.latencies),
              "untraced_s": sum(plain.latencies), "traced_s": sum(main.latencies),
              "overhead": overhead}
    trace_path = OUT / f"trace-{workload.name}-{workload.seed}.json"
    tracer.write(trace_path, {"workload": workload.name, "seed": workload.seed,
                              "metrics": {k: v[0] for k, v in metrics.items()}, **detail})
    print(f"perfbench: tracing overhead {overhead:+.1%} on {len(main.latencies)} "
          f"{workload.name} ops; spans in {trace_path.relative_to(HERE.parent)}",
          file=sys.stderr)
    combined = Pass(plain.nominal_s)
    combined.latencies = plain.latencies + main.latencies
    combined.failed = plain.failed + main.failed
    return combined, [plain, main] + side, metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["certify", "graph_scale", "concurrency", "cli_oneshot"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "ditopo" / "__init__.py").is_file():
        print(f"perfbench: no ditopo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    # One core for this process and its children, so that the reference
    # times the core the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Compile the sources once, untimed, so that no run pays for bytecode.
    subprocess.run([sys.executable, "-c", "import ditopo.cli"], env=_child_env(), check=True)
    probe = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
             str(workdir / "probe")]
    reference = StartReference()
    probes, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference())
        probes.append(_child_seconds(probe))
    refs.append(reference())
    setup = (probes, normalised(probes, refs, reference.nominal_s))

    import ditopo
    if Path(ditopo.__file__).resolve().parent != SRC / "ditopo":
        print(f"perfbench: imported ditopo from {ditopo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer, workdir, SRC)
    t0 = time.perf_counter()
    if args.trace:
        run, passes, metrics, detail = traced(workload, tracer, args.seconds, workloads, workdir)
    else:
        run, passes, metrics, detail = measured(workload, tracer, args.seconds, setup)
    unexpected = [u for p in passes for u in p.unexpected]
    for u in unexpected[:5]:
        print(f"perfbench: unexpected failure {u}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "wall_s": time.perf_counter() - t0,
               "unexpected": unexpected[:20], **detail, **result}
    suffix = "trace" if args.trace else "result"
    (OUT / f"{suffix}-summary-{args.workload}-{args.seed}.json").write_text(
        json.dumps(summary), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
