"""Time ``path_sup_distance`` on k-step chain paths, for a size sweep.

    python3 scripts/path_eval_sweep.py [--src DIR] [--ks 1,16,256]

Imports ditopo from DIR (default: this checkout's ``src``), so the same
script times two checkouts.  For each k it builds the chain v0 -> ... -> vk,
then times ``path_sup_distance`` (64 samples, the graph metric) between the
full run along the chain and a copy that starts and ends a quarter edge
inside.  Every call gets a fresh pair of path objects, as the certifier's
sections are, so a path's first-use cost is timed; building the objects is
not.  The graph's distance tables are filled before timing.  Prints one
JSON object: per k, the best of 5 repeats of the mean time per call, in ms.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--ks", default="1,16,256")
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from ditopo.core import DiPath, path_sup_distance
    from ditopo.graph import DirectedGraph

    out = {}
    for k in (int(x) for x in args.ks.split(",")):
        vertices = [f"v{i}" for i in range(k + 1)]
        g = DirectedGraph(vertices, [(f"e{i}", vertices[i], vertices[i + 1]) for i in range(k)])
        full = [(f"e{i}", 0.0, 1.0) for i in range(k)]
        inner = list(full)
        inner[0] = ("e0", 0.25, 1.0)
        inner[-1] = (f"e{k - 1}", inner[-1][1], 0.75)
        for v in vertices:
            g.vertex_distance(v, v)
        best = float("inf")
        for _ in range(5):
            pairs = [(DiPath.from_steps(g, full), DiPath.from_steps(g, inner))
                     for _ in range(args.calls)]
            t0 = time.perf_counter()
            for p, q in pairs:
                path_sup_distance(p, q, g.distance)
            best = min(best, (time.perf_counter() - t0) / args.calls)
        out[str(k)] = round(best * 1e3, 4)
    print(json.dumps({"path_sup_distance_ms": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
