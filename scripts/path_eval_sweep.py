"""Time the exact and the 64-sample sup distance on k-step chain paths, for a size sweep.

    python3 scripts/path_eval_sweep.py [--src DIR] [--ks 1,16,256]

Imports ditopo from DIR (default: this checkout's ``src``).  For each k it
builds the chain v0 -> ... -> vk, then times two sups between the full run
along the chain and a copy that starts and ends a quarter edge inside:
``path_sup_distance`` (exact, read at the fractions ``sup_fractions``
returns) and the 64-sample sup it replaced (both paths walked once over 64
evenly spaced fractions).  Every call gets a fresh pair of path objects, as
the certifier's sections are, so a path's first-use cost is timed; building
the objects is not.  The graph's distance tables are filled before timing.
Prints one JSON object: per sup and k, the best of 5 repeats of the mean
time per call, in ms, and the number of fractions each sup reads.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def sampled_sup(p, q, distance, samples: int = 64) -> float:
    fractions = [i / (samples - 1) for i in range(samples)]
    worst = 0.0
    for a, b in zip(p.evaluate_many(fractions), q.evaluate_many(fractions)):
        worst = max(worst, distance(a, b))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--ks", default="1,16,256")
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from ditopo.core import DiPath, path_sup_distance
    from ditopo.graph import DirectedGraph

    sups = {"exact": path_sup_distance,
            "sampled_64": lambda p, q, g: sampled_sup(p, q, g.distance)}
    out = {name: {} for name in sups}
    fractions = {}
    for k in (int(x) for x in args.ks.split(",")):
        vertices = [f"v{i}" for i in range(k + 1)]
        g = DirectedGraph(vertices, [(f"e{i}", vertices[i], vertices[i + 1]) for i in range(k)])
        full = [(f"e{i}", 0.0, 1.0) for i in range(k)]
        inner = list(full)
        inner[0] = ("e0", 0.25, 1.0)
        inner[-1] = (f"e{k - 1}", inner[-1][1], 0.75)
        for v in vertices:
            g.vertex_distance(v, v)
        p, q = DiPath.from_steps(g, full), DiPath.from_steps(g, inner)
        fractions[str(k)] = {"exact": len(g.sup_fractions(p, q)), "sampled_64": 64}
        for name, sup in sups.items():
            best = float("inf")
            for _ in range(5):
                pairs = [(DiPath.from_steps(g, full), DiPath.from_steps(g, inner))
                         for _ in range(args.calls)]
                t0 = time.perf_counter()
                for p, q in pairs:
                    sup(p, q, g)
                best = min(best, (time.perf_counter() - t0) / args.calls)
            out[name][str(k)] = round(best * 1e3, 4)
    print(json.dumps({"sup_ms": out, "fractions_read": fractions}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
