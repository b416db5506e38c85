"""Time PV schedules and membership on (Pa.Va.Pb.Vb)^k, for a size sweep.

    python3 scripts/pv_sweep.py [--src DIR] [--lengths 16,32,64,128] [--repeats 3]

Imports ditopo from DIR (default: this checkout's ``src``), so the same
script times two checkouts.  For each length L (actions per process, a
multiple of 4) it runs the program (Pa.Va.Pb.Vb)^(L/4) in both processes
at resolution 8 and times two requests, each with a fresh oracle, as a
``concurrency`` op makes them:

- ``schedule`` from (0, 0) to (L, L);
- ``pv_gamma`` plus ``membership`` from each of (0, 0), (0, 1) and (1, 0)
  to (L, L), three sources on one oracle.

Prints one JSON object: per length, the best of the repeats in ms, and the
schedule's point count.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--lengths", default="16,32,64,128")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from ditopo.pv import parse_pv, pv_gamma, schedule

    out = {"resolution": 8, "schedule_ms": {}, "membership3_ms": {}, "schedule_points": {}}
    for length in (int(x) for x in args.lengths.split(",")):
        text = ".".join(["Pa.Va.Pb.Vb"] * (length // 4))
        prog = parse_pv(f"{text}|{text}")
        best_schedule = best_membership = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            s = schedule(prog, (0, 0), (length, length), 8)
            t1 = time.perf_counter()
            oracle = pv_gamma(prog, 8)
            answers = [oracle.membership(src, (length, length))
                       for src in ((0, 0), (0, 1), (1, 0))]
            t2 = time.perf_counter()
            assert answers == [True, True, True]
            best_schedule = min(best_schedule, t1 - t0)
            best_membership = min(best_membership, t2 - t1)
        out["schedule_ms"][str(length)] = round(best_schedule * 1e3, 3)
        out["membership3_ms"][str(length)] = round(best_membership * 1e3, 3)
        out["schedule_points"][str(length)] = len(s.points)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
