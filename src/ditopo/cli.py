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
    table = None    # a command's subcommands, added when the command is parsed

    def parse_known_args(self, args=None, namespace=None):
        if self.table:  # so a request builds the parsers of its own command only
            table, self.table = self.table, None
            sub = self.add_subparsers(dest=f"{self.prog.split()[-1]}_command", required=True)
            for name, (help, arguments) in table.items():
                p = sub.add_parser(name, help=help)
                for flag, options in arguments.items():
                    p.add_argument(flag, **options)
        return super().parse_known_args(args, namespace)

    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_MAX_DRAWS, _MAX_GRID_NODES = 100_000, 1 << 26   # checked before any work; see README


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


def _ends(help=None) -> dict:
    """The --from and --to arguments; ``help`` goes on --from."""
    return {"--from": {"dest": "src", "required": True, "help": help},
            "--to": {"dest": "dst", "required": True}}


# command -> (help, {subcommand -> (help, {argument -> add_argument options})})
_COMMANDS = {
    "graph": ("directed graph operations", {
        "ditc": ("directed complexity report", {"file": {}, "--dot": {
            "action": "store_true", "help": "emit the graph as DOT instead"}}),
        "plan": ("plan a path between two points",
                 {"file": {}, **_ends("point, e.g. v:b or e:top:0.5")}),
        "gamma": ("reachability membership", {"file": {}, **_ends()})}),
    "torus": ("directed torus operations", {"plan": ("plan on the n-torus", {
        "--n": {"type": positive_int, "required": True},
        **_ends("angles in turns, e.g. 0.25,0.5")})}),
    "pv": ("two-process PV programs", {
        "schedule": ("schedule between two positions", {
            "program": {"help": 'e.g. "Pa.Va.Pb.Vb|Pa.Va.Pb.Vb"'}, **_ends("x1,x2 in step units"),
            "--resolution": {"type": positive_int, "default": 8},
            "--svg": {"help": "also write an SVG rendering to this file"}}),
        "regions": ("forbidden rectangles", {
            "program": {}, "--svg": {"help": "write an SVG rendering to this file"}})}),
    "sphere": ("directed sphere boundaries", {"reach": ("boundary-monotone reachability", {
        "-n": {"type": int, "required": True}, **_ends("comma-separated coordinates")})}),
    "nathom": ("natural homology over trace diagrams", {
        "build": ("build the sampled trace diagram", {
            "file": {},
            "--samples": {"required": True, "help": "comma-separated points, e.g. v:b,v:e"},
            "--dot": {"action": "store_true"}, "--degree": {"type": positive_int, "default": 1}}),
        "point-check": ("bisimulation with the constant-Z diagram",
                        {"file": {}, "--samples": {"required": True}})}),
    "check": ("planner certification", {
        "section": ("partition + section exactness",
                    {"file": {}, "--samples": {"type": positive_int, "default": 1000}}),
        "continuity": ("sampled Lipschitz certificate", {
            "file": {}, "--patch": {"required": True},
            "--pairs": {"type": positive_int, "default": 200},
            "--eps": {"type": positive_float, "default": 0.01}})}),
}


def _build_parser() -> _Parser:
    top = _Parser(prog="ditopo", description=__doc__)
    top.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help, table) in _COMMANDS.items():
        sub.add_parser(name, help=help).table = table
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
        return dumps({"ditc": report.to_json(), "patch": patch.id,
                      "paths": [p.to_json() for p in patch.section(x, y).components]})

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
        nodes = (prog.shape[0] * args.resolution + 1) * (prog.shape[1] * args.resolution + 1)
        if nodes > _MAX_GRID_NODES:
            raise _BadArgument(f"--resolution makes {nodes} grid nodes, over {_MAX_GRID_NODES}")
        sched = schedule(prog, _position(args.src), _position(args.dst), args.resolution)
        doc = sched.to_json()
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_svg(prog, sched))
            doc["svg"] = args.svg
        return dumps(doc)

    if args.command == "sphere":
        from .sphere import sphere_gamma
        member = sphere_gamma(args.n, _parse_xy(args.src), _parse_xy(args.dst))
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
        draws = args.samples if args.check_command == "section" else args.pairs
        if draws > _MAX_DRAWS:
            raise _BadArgument(f"--samples and --pairs are at most {_MAX_DRAWS}, got {draws}")
        from .core import check_patch_continuity, check_section
        from .graph import build_planner
        planner = build_planner(_load_graph(args.file))
        if args.check_command == "section":
            report = check_section(planner, planner.space, args.samples, seed=args.seed)
            return dumps(report.to_json())
        report = check_patch_continuity(planner, args.patch, args.pairs, args.eps, seed=args.seed)
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
