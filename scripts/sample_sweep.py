"""Time pair sampling from the relation against the rejection loop.

    python3 scripts/sample_sweep.py [--src DIR] [--tests DIR] [--sizes 30,300,3000]
                                    [--spheres 1,2,3,4,5] [--tori 1,2,3]
                                    [--budget 0.2] [--seed 1]

Imports ditopo from DIR (default: this checkout's ``src``) and the
rejection loop ``rejection_sample_pair`` from the tests' ``conftest.py``.
The spaces are directed chains and zig-zags (a1 -> b1 <- a2 -> b2 ...) with
V vertices, where the rejection loop keeps about half and O(1/V) of its
draws; ``SphereGamma(n)``, where it keeps 2^-(n+1); and directed tori.

For each space it records, on fresh oracles:
- ``first_call_ms``: the first ``oracle.sample_pair`` call, which builds the
  sampling tables (graphs only; products and spheres build none);
- ``first_call_peak_kb``: the tracemalloc peak of that call, on another
  fresh oracle;
- ``sample_pair_us`` and ``rejection_us``: microseconds per pair, each
  drawn for ``--budget`` seconds (at least 5 pairs) after the first call;
- ``rejection_kept``: the share of the rejection loop's draws it keeps.

Prints one JSON object.
"""

import argparse
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path


def per_pair_us(draw, oracle, seed: int, budget: float) -> float:
    rng = random.Random(seed)
    pairs, t0 = 0, time.perf_counter()
    while pairs < 5 or time.perf_counter() - t0 < budget:
        draw(oracle, rng)
        pairs += 1
    return round((time.perf_counter() - t0) / pairs * 1e6, 2)


def kept_share(reject, oracle, seed: int, pairs: int = 200) -> float:
    """Pairs kept per draw of the rejection loop over ``pairs`` pairs,
    counted by its membership calls."""
    calls = [0]
    member = oracle.membership

    def counted(x, y):
        calls[0] += 1
        return member(x, y)

    oracle.membership = counted
    rng = random.Random(seed)
    for _ in range(pairs):
        reject(oracle, rng)
    del oracle.membership
    return round(pairs / calls[0], 6)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(root / "src"))
    parser.add_argument("--tests", default=str(root / "tests"))
    parser.add_argument("--sizes", default="30,300,3000")
    parser.add_argument("--spheres", default="1,2,3,4,5")
    parser.add_argument("--tori", default="1,2,3")
    parser.add_argument("--budget", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path[:0] = [args.src, args.tests]
    from conftest import rejection_sample_pair
    from ditopo.graph import DirectedGraph, gamma
    from ditopo.product import torus_planner
    from ditopo.sphere import SphereGamma

    def chain(v):
        return DirectedGraph([f"v{i}" for i in range(v)],
                             [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(v - 1)])

    def zigzag(v):
        k = v // 2
        return DirectedGraph([f"{c}{i}" for i in range(k) for c in "ab"],
                             [(f"f{i}", f"a{i}", f"b{i}") for i in range(k)]
                             + [(f"g{i}", f"a{i + 1}", f"b{i}") for i in range(k - 1)])

    spaces = []
    for v in (int(s) for s in args.sizes.split(",")):
        spaces.append((f"chain V={v}", lambda v=v: gamma(chain(v))))
        spaces.append((f"zigzag V={v}", lambda v=v: gamma(zigzag(v))))
    for n in (int(s) for s in args.spheres.split(",")):
        spaces.append((f"sphere n={n}", lambda n=n: SphereGamma(n)))
    for n in (int(s) for s in args.tori.split(",")):
        spaces.append((f"torus n={n}", lambda n=n: torus_planner(n)[0].space))

    rows = {}
    for name, make in spaces:
        oracle = make()
        t0 = time.perf_counter()
        oracle.sample_pair(random.Random(args.seed))
        first_ms = (time.perf_counter() - t0) * 1e3
        fresh = make()
        tracemalloc.start()
        fresh.sample_pair(random.Random(args.seed))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rows[name] = {
            "first_call_ms": round(first_ms, 3),
            "first_call_peak_kb": round(peak / 1024, 1),
            "sample_pair_us": per_pair_us(lambda o, r: o.sample_pair(r), oracle,
                                          args.seed, args.budget),
            "rejection_us": per_pair_us(rejection_sample_pair, oracle, args.seed, args.budget),
            "rejection_kept": kept_share(rejection_sample_pair, oracle, args.seed),
        }
    print(json.dumps({"seed": args.seed, "budget_s": args.budget, "spaces": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
