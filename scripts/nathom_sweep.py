"""Time natural-homology diagrams and bisimulation checks on ladders, for a size sweep.

    python3 scripts/nathom_sweep.py [--src DIR] [--rungs 3,4,5,6] [--repeats 3]

Imports ditopo from DIR (default: this checkout's ``src``), so the same
script times two checkouts.  For each k it builds the ladder
j0 -> j1 -> ... -> jk whose every rung is a diamond of two parallel edges,
samples every junction, and times two requests:

- ``factorization_diagram`` on those k + 1 samples;
- ``check_bisimulation`` of the diagram with itself under the identity
  relation (one identity matrix per object, as a ``concurrency`` op
  passes it), which must return True.

The group between j_i and j_l has rank 2^(l - i), so the largest rank is
2^k.  Prints one JSON object: per k, the object and morphism counts, the
largest rank, and the best of the repeats in ms.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--rungs", default="3,4,5,6")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from ditopo.core import Vertex
    from ditopo.graph import DirectedGraph
    from ditopo.nathom import check_bisimulation, factorization_diagram

    out = {"objects": {}, "morphisms": {}, "max_rank": {},
           "diagram_ms": {}, "bisimulation_ms": {}}
    for k in (int(x) for x in args.rungs.split(",")):
        g = DirectedGraph([f"j{i}" for i in range(k + 1)],
                          [(f"{side}{i}", f"j{i}", f"j{i + 1}")
                           for i in range(k) for side in "ab"])
        samples = [Vertex(f"j{i}") for i in range(k + 1)]
        best_diagram = best_check = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            d = factorization_diagram(g, samples)
            t1 = time.perf_counter()
            relation = [(o.id, [[int(i == j) for j in range(o.rank)] for i in range(o.rank)],
                         o.id) for o in d.objects]
            t2 = time.perf_counter()
            accepted = check_bisimulation(d, d, relation)
            t3 = time.perf_counter()
            assert accepted is True
            best_diagram = min(best_diagram, t1 - t0)
            best_check = min(best_check, t3 - t2)
        out["objects"][str(k)] = len(d.objects)
        out["morphisms"][str(k)] = len(d.morphisms)
        out["max_rank"][str(k)] = max(o.rank for o in d.objects)
        out["diagram_ms"][str(k)] = round(best_diagram * 1e3, 3)
        out["bisimulation_ms"][str(k)] = round(best_check * 1e3, 3)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
