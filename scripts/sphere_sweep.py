"""Time cube-boundary reachability queries, for a dimension and grid sweep.

    python3 scripts/sphere_sweep.py [--src DIR] [--dims 1,2,3] [--grids 16,32]
                                    [--pairs 200] [--repeats 3]

Imports ditopo from DIR (default: this checkout's ``src``), so the same
script times two checkouts.  For each dimension n it draws seeded pairs of
boundary points of the (n+1)-cube on the 1/16 lattice with x <= y and
x != y, the pairs that the decreasing pre-check of ``sphere_gamma`` does
not answer, and keeps the first ``--pairs`` reachable and the first
``--pairs`` unreachable ones.  It then times ``sphere_gamma`` over each set
at each grid.  A checkout that keeps a module-level result cache
(``_reach_cache``) has it cleared before every timed pass, so each pass
times the queries a fresh ``ditopo`` process answers.

Prints one JSON object: per n and grid, the best of the repeats in
microseconds per query, for reachable and unreachable pairs.
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path


def lattice_pairs(n: int, count: int, member) -> dict:
    """The first ``count`` reachable and unreachable lattice pairs x <= y."""
    rng = random.Random(1000 + n)
    found = {"reachable": [], "unreachable": []}

    def point():
        i = rng.randrange(n + 1)
        return tuple(float(rng.randrange(2)) if j == i else rng.randrange(17) / 16
                     for j in range(n + 1))

    while min(len(v) for v in found.values()) < count:
        x, y = point(), point()
        if x == y or any(b < a for a, b in zip(x, y)):
            continue
        bucket = found["reachable" if member(n, x, y) else "unreachable"]
        if len(bucket) < count:
            bucket.append((x, y))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--dims", default="1,2,3")
    parser.add_argument("--grids", default="16,32")
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import ditopo.sphere as sphere

    cache = getattr(sphere, "_reach_cache", {})
    grids = [int(g) for g in args.grids.split(",")]
    out = {"pairs": args.pairs, "repeats": args.repeats, "us_per_query": {}}
    for n in (int(d) for d in args.dims.split(",")):
        sets = lattice_pairs(n, args.pairs, sphere.sphere_gamma)
        per_grid = out["us_per_query"][str(n)] = {}
        for grid in grids:
            row = per_grid[str(grid)] = {}
            for kind, pairs in sets.items():
                want = kind == "reachable"
                best = float("inf")
                for _ in range(args.repeats):
                    cache.clear()
                    t0 = time.perf_counter()
                    answers = [sphere.sphere_gamma(n, x, y, grid) for x, y in pairs]
                    best = min(best, time.perf_counter() - t0)
                    assert all(a is want for a in answers), (n, grid, kind)
                row[kind] = round(best / len(pairs) * 1e6, 2)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
