"""Command-line front end.

JSON on stdout is the single interchange format; DOT and SVG are
export-only.  Exit codes: 0 success, 1 usage errors (bad arguments or
unreadable input files), 2 domain errors (unreachable pairs, infinite
trace spaces, ...) with a machine-readable error object on stdout.
Identical argv and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import DitopoError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _BadInput(Exception):
    """An input file that parses as JSON but does not describe the object."""


class _BadArgument(Exception):
    """An argument value that the parser accepts but the command cannot use."""


def dumps(doc: dict) -> str:
    """Canonical JSON: every command's stdout."""
    return json.dumps(doc, indent=2, sort_keys=True)


def _load_graph(path: str):
    from .graph import DirectedGraph
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return DirectedGraph.from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise _BadInput(f"{path} is not a ditopo graph ({type(exc).__name__}: {exc})") from None


def _parse_xy(text: str) -> tuple:
    return tuple(float(c) for c in text.split(","))


def _position(text: str) -> tuple:
    """A PV position: two finite coordinates."""
    xy = _parse_xy(text)
    if len(xy) != 2 or not all(math.isfinite(c) for c in xy):
        raise _BadArgument(f"a position is two finite numbers x1,x2; got {text!r}")
    return xy


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {value}")
    return value


def lattice_grid(text: str) -> int:
    from .sphere import QUANT
    value = int(text)
    if value < QUANT or value % QUANT:
        raise argparse.ArgumentTypeError(
            f"must be a positive multiple of {QUANT}, got {value}")
    return value


def _build_parser() -> _Parser:
    top = _Parser(prog="ditopo", description=__doc__)
    top.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", parents=[], help="directed graph operations")
    gsub = g.add_subparsers(dest="graph_command", required=True)
    p = gsub.add_parser("ditc", help="directed complexity report")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit the graph as DOT instead")
    p = gsub.add_parser("plan", help="plan a path between two points")
    p.add_argument("file")
    p.add_argument("--from", dest="src", required=True, help="point, e.g. v:b or e:top:0.5")
    p.add_argument("--to", dest="dst", required=True)
    p = gsub.add_parser("gamma", help="reachability membership")
    p.add_argument("file")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)

    t = sub.add_parser("torus", help="directed torus operations")
    tsub = t.add_subparsers(dest="torus_command", required=True)
    p = tsub.add_parser("plan", help="plan on the n-torus")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--from", dest="src", required=True, help="angles in turns, e.g. 0.25,0.5")
    p.add_argument("--to", dest="dst", required=True)

    v = sub.add_parser("pv", help="two-process PV programs")
    vsub = v.add_subparsers(dest="pv_command", required=True)
    p = vsub.add_parser("schedule", help="schedule between two positions")
    p.add_argument("program", help='e.g. "Pa.Va.Pb.Vb|Pa.Va.Pb.Vb"')
    p.add_argument("--from", dest="src", required=True, help="x1,x2 in step units")
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--resolution", type=positive_int, default=8)
    p.add_argument("--svg", help="also write an SVG rendering to this file")
    p = vsub.add_parser("regions", help="forbidden rectangles")
    p.add_argument("program")
    p.add_argument("--svg", help="write an SVG rendering to this file")

    s = sub.add_parser("sphere", help="directed sphere boundaries")
    ssub = s.add_subparsers(dest="sphere_command", required=True)
    p = ssub.add_parser("reach", help="boundary-monotone reachability")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--from", dest="src", required=True, help="comma-separated coordinates")
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--grid", type=lattice_grid, default=None,
                   help="a multiple of 16 (default 16); validated, does not change the answer")

    n = sub.add_parser("nathom", help="natural homology over trace diagrams")
    nsub = n.add_subparsers(dest="nathom_command", required=True)
    p = nsub.add_parser("build", help="build the sampled trace diagram")
    p.add_argument("file")
    p.add_argument("--samples", required=True, help="comma-separated points, e.g. v:b,v:e")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--degree", type=positive_int, default=1)
    p = nsub.add_parser("point-check", help="bisimulation with the constant-Z diagram")
    p.add_argument("file")
    p.add_argument("--samples", required=True)

    c = sub.add_parser("check", help="planner certification")
    csub = c.add_subparsers(dest="check_command", required=True)
    p = csub.add_parser("section", help="partition + section exactness")
    p.add_argument("file")
    p.add_argument("--samples", type=positive_int, default=1000)
    p = csub.add_parser("continuity", help="sampled Lipschitz certificate")
    p.add_argument("file")
    p.add_argument("--patch", required=True)
    p.add_argument("--pairs", type=positive_int, default=200)
    p.add_argument("--eps", type=positive_float, default=0.01)

    return top


def _run(args) -> str:
    # each branch imports only the modules its command uses
    if args.command == "graph":
        from .core import parse_point
        from .graph import build_planner, ditc, gamma
        g = _load_graph(args.file)
        if args.graph_command == "ditc":
            if getattr(args, "dot", False):
                return g.to_dot()
            return dumps(ditc(g).to_json())
        if args.graph_command == "plan":
            planner = build_planner(g)
            x, y = parse_point(args.src), parse_point(args.dst)
            patch = planner.claim(x, y)
            return dumps({"patch": patch.id, "path": patch.section(x, y).to_json()})
        oracle = gamma(g)
        member = oracle.membership(parse_point(args.src), parse_point(args.dst))
        return dumps({"member": member})

    if args.command == "torus":
        from .product import parse_torus_point, torus_planner
        planner, report = torus_planner(args.n)
        x = parse_torus_point(args.src, args.n)
        y = parse_torus_point(args.dst, args.n)
        patch = planner.claim(x, y)
        return dumps({
            "ditc": report.to_json(),
            "patch": patch.id,
            "paths": [p.to_json() for p in patch.section(x, y).components],
        })

    if args.command == "pv":
        from .pv import forbidden_regions, parse_pv, render_svg, schedule
        prog = parse_pv(args.program)
        if args.pv_command == "regions":
            doc = forbidden_regions(prog).to_json()
            if args.svg:
                with open(args.svg, "w", encoding="utf-8") as fh:
                    fh.write(render_svg(prog))
                doc["svg"] = args.svg
            return dumps(doc)
        sched = schedule(prog, _position(args.src), _position(args.dst), args.resolution)
        doc = sched.to_json()
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_svg(prog, sched))
            doc["svg"] = args.svg
        return dumps(doc)

    if args.command == "sphere":
        from .sphere import QUANT, sphere_gamma
        grid = QUANT if args.grid is None else args.grid
        member = sphere_gamma(args.n, _parse_xy(args.src), _parse_xy(args.dst), grid)
        return dumps({"member": member})

    if args.command == "nathom":
        from .core import parse_point
        from .nathom import factorization_diagram, h_n, is_bisimilar_to_point
        g = _load_graph(args.file)
        try:
            samples = [parse_point(s) for s in args.samples.split(",")]
        except DitopoError:
            raise
        except ValueError as exc:
            raise _BadArgument(f"bad --samples point ({exc})") from None
        diagram = factorization_diagram(g, samples)
        if args.nathom_command == "build":
            diagram = h_n(diagram, args.degree)
            if args.dot:
                return diagram.to_dot()
            return dumps(diagram.to_json())
        ok, certificate = is_bisimilar_to_point(diagram)
        return dumps({"bisimilar_to_point": ok, "certificate": certificate})

    if args.command == "check":
        from .core import check_patch_continuity, check_section
        from .graph import build_planner
        g = _load_graph(args.file)
        planner = build_planner(g)
        if args.check_command == "section":
            report = check_section(planner, planner.space, args.samples, seed=args.seed)
            return dumps(report.to_json())
        report = check_patch_continuity(planner, args.patch, args.pairs,
                                        args.eps, seed=args.seed)
        return dumps(report.to_json())

    raise AssertionError("unhandled command")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        output = _run(args)
    except DitopoError as exc:
        print(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    except (OSError, json.JSONDecodeError, _BadInput) as exc:
        print(f"ditopo: cannot read input: {exc}", file=sys.stderr)
        return 1
    except _BadArgument as exc:
        print(f"ditopo: error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
