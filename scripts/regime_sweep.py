"""Measure graph planners as regime tables against a parent checkout.

    python3 scripts/regime_sweep.py sweep [--src DIR] [--seed 1]
    python3 scripts/regime_sweep.py pairs --parent DIR [--change DIR]
                                          [--workloads certify] [--seeds 1,1812]
                                          [--pairs 10] [--seconds 20]
    python3 scripts/regime_sweep.py all --parent DIR [--out BENCH_regime_tables.json]

``sweep`` imports ditopo from DIR (default: this checkout's ``src``) and
prints one JSON object with, measured in process:
- ``certify_ms``: per planner kind, the median time of one certification
  as perfbench's ``certify`` op runs it (``check_section`` with 400
  samples, then ``check_patch_continuity`` with 40 pairs on every patch)
  on a fresh planner; the corpus tiers are taken from perfbench's seeded
  certify pool, the rest are the built-ins, tori n = 1..3 and the square;
- ``regimes_filled``: for each corpus tier and torus, the regimes a fresh
  planner's table holds after ``check_section`` draws N samples, next to
  the regimes of the relation (None on a tree without tables);
- ``chain_plan_us``: on a directed chain of n vertices (the unique-trace
  tier), the first ``plan`` query of a pair (from the first edge's interior
  to the last edge's interior) on a fresh planner, and the same query
  repeated on that planner; medians over repeats.

``pairs`` runs ``perfbench/run.py`` in both checkouts, one run at a time,
alternating which side runs first, and prints medians, quartiles, every
run and the number of pairs the change won per metric.  ``all`` runs both
sweeps on both sides and the pairs, and writes the BENCH file.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOWER_IS_BETTER = {"setup_s": True, "ops_per_s": False, "op_p50_ms": True,
                   "op_tail_ms": True, "peak_rss_mb": True}


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e3, 4)


def _corpus_graphs(seed: int) -> dict:
    """Tier name -> up to 12 graphs of perfbench's seeded certify pool."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    from ditopo.graph import DirectedGraph, ditc
    tiers: dict = {}
    for inp in gen.certify_inputs(seed):
        g = DirectedGraph.from_json(inp["graph"])
        report = ditc(g)
        name = f"{report.reason.value}/{report.upper}"
        if len(tiers.setdefault(name, [])) < 12:
            tiers[name].append(inp["graph"])
    return tiers


def _relation_regimes(planner, g) -> int:
    """Regimes of a graph's relation: cell pairs in it, each same-edge pair
    counted once per order of t and t' that lies in it."""
    from ditopo.core import EdgeInterior, Vertex
    oracle = planner.space
    cells = [Vertex(v) for v in g.vertices] + [EdgeInterior(e.id, 0.5) for e in g.edges]
    keys = set()
    for x in cells:
        for y in cells:
            pairs = [(x, y)]
            if isinstance(x, EdgeInterior) and x == y:
                pairs = [(EdgeInterior(x.edge, 0.5), EdgeInterior(x.edge, 0.5 + d))
                         for d in (0.25, 5e-10, -5e-10, -0.25)]
            keys.update(planner.regime(a, b) for a, b in pairs if oracle.membership(a, b))
    return len(keys)


def sweep(seed: int) -> dict:
    from ditopo import core, graph, product, sphere
    from ditopo.graph import DirectedGraph, build_planner

    def certify(make):
        def run():
            planner = make()
            core.check_section(planner, planner.space, 400, seed=seed)
            for pid in planner.patch_ids():
                core.check_patch_continuity(planner, pid, 40, 0.01, seed=seed)
        return run

    tiers = _corpus_graphs(seed)
    certify_ms = {}
    for name, docs in tiers.items():
        certify_ms[f"corpus {name}"] = {"graphs": len(docs), "median_ms": statistics.median(
            _median_ms(certify(lambda d=d: build_planner(DirectedGraph.from_json(d))), 3)
            for d in docs)}
    specials = {
        "interval_planner": graph.interval_planner,
        "circle_planner": graph.circle_planner,
        "loop_planner": graph.loop_planner,
        "torus1": lambda: product.torus_planner(1)[0],
        "torus2": lambda: product.torus_planner(2)[0],
        "torus3": lambda: product.torus_planner(3)[0],
        "square": sphere.sphere_planner_1,
    }
    for name, make in specials.items():
        certify_ms[name] = {"median_ms": _median_ms(certify(make), 7)}

    filled = {}
    samples = (25, 100, 400, 1600)
    has_tables = hasattr(graph, "CellPlanner")
    for name, docs in tiers.items():
        rows = []
        for d in docs[:6]:
            g = DirectedGraph.from_json(d)
            row = {"cells": len(g.vertices) + len(g.edges)}
            if has_tables:
                row["relation_regimes"] = _relation_regimes(build_planner(g), g)
            for n in samples:
                planner = build_planner(g)
                core.check_section(planner, planner.space, n, seed=seed)
                row[f"after_{n}"] = len(planner.table) if has_tables else None
            rows.append(row)
        filled[f"corpus {name}"] = rows
    for n in (1, 2, 3):
        row = {}
        for k in samples:
            planner, _ = product.torus_planner(n)
            core.check_section(planner, planner.space, k, seed=seed)
            row[f"after_{k}"] = len(planner.table) if has_tables else None
        filled[f"torus{n}"] = row

    chain = {}
    for n in (50, 200, 800):
        g = DirectedGraph([f"v{i}" for i in range(n)],
                          [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])
        x, y = core.EdgeInterior("e0", 0.25), core.EdgeInterior(f"e{n - 2}", 0.75)
        graph.gamma(g)
        firsts = []
        for _ in range(15):
            fresh = build_planner(g)
            gc.collect()
            firsts.append(_median_ms(lambda: fresh.plan(x, y), 1))
        first = statistics.median(firsts)
        warm = build_planner(g)
        warm.plan(x, y)
        repeated = _median_ms(lambda: warm.plan(x, y), 200)
        chain[f"n={n}"] = {"first_plan_us": round(first * 1e3, 2),
                           "repeated_plan_us": round(repeated * 1e3, 2),
                           "path_steps": len(warm.plan(x, y).steps)}
    return {"seed": seed, "certify_ms": certify_ms, "regimes_filled": filled,
            "chain_plan_us": chain}


def _run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    doc["wall_s"] = round(time.perf_counter() - t0, 1)
    return doc


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": sorted(round(v, 4) for v in values)}


def pairs(parent: Path, change: Path, workloads, seeds, count: int, seconds: float) -> list:
    results = []
    for workload in workloads:
        for seed in seeds:
            runs = {"parent": [], "change": []}
            for i in range(count):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(_run_bench(parent if side == "parent" else change,
                                                 workload, seed, seconds))
            metrics = {}
            for name, lower in LOWER_IS_BETTER.items():
                p = [r["metrics"][name]["value"] for r in runs["parent"]]
                c = [r["metrics"][name]["value"] for r in runs["change"]]
                wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
                metrics[name] = {"parent": _summary(p), "change": _summary(c),
                                 "change_vs_parent": round(statistics.median(c)
                                                           / statistics.median(p) - 1, 4),
                                 "change_better_in_pairs": wins}
            results.append({
                "workload": workload, "seed": seed, "pairs": count, "metrics": metrics,
                "failed": {s: [r["failed"] for r in runs[s]] for s in runs},
                "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
                "wall_s": {s: [r["wall_s"] for r in runs[s]] for s in runs}})
            print(json.dumps(results[-1]["metrics"]["op_p50_ms"]), file=sys.stderr)
    return results


def _sweep_in(checkout: Path, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "sweep",
                          "--src", str(checkout / "src"), "--seed", str(seed)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("sweep", "pairs", "all"))
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--workloads", default="certify")
    parser.add_argument("--seeds", default="1,1812")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_regime_tables.json")
    args = parser.parse_args()
    if args.mode == "sweep":
        sys.path.insert(0, args.src)
        print(json.dumps(sweep(args.seed), indent=1))
        return
    if args.parent is None:
        parser.error("--parent is required")
    seeds = [int(s) for s in args.seeds.split(",")]
    paired = pairs(args.parent.resolve(), args.change.resolve(), args.workloads.split(","),
                   seeds, args.pairs, args.seconds)
    if args.mode == "pairs":
        print(json.dumps(paired, indent=1))
        return
    doc = {
        "label": "regime_tables",
        "environment": {"python": platform.python_version(), "cores": os.cpu_count(),
                        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                        "run_seconds": args.seconds,
                        "order": "pairs alternate which side runs first; one run at a time"},
        "command": "python3 scripts/regime_sweep.py all --parent <checkout of the parent>",
        "paired_runs": paired,
        "sweep": {side: _sweep_in(path.resolve(), args.seed)
                  for side, path in (("parent", args.parent), ("change", args.change))},
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
