"""The four workloads: inputs, set-up, one op, and the check of its output.

Every op of a workload has the same make-up, so its latency distribution
has one peak.  An op rebuilds the program's objects (graphs, programs) from
its plain-data inputs, because the library caches per object (undirected
distances on a graph, reachable sets on a PV oracle) and a reused object
would make later passes over the pool cheaper than the first.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback

import checkers as ck
import gen
from ditopo import cli, core, graph, nathom, product, pv, sphere

SECTION_SAMPLES = 400
CONTINUITY_PAIRS = 40
PERTURBATION = 0.01


class Workload:
    name = ""
    round_size = 1          # ops per round; runs attempt whole rounds
    in_process = True       # False: each op is a child process

    def __init__(self, seed: int, tracer, workdir, src):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.src = src
        self.pool = self.make_ops()

    def make_ops(self) -> list:
        raise NotImplementedError

    def build(self) -> None:
        """Build the program's objects from the generated inputs (set-up)."""

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list:
        raise NotImplementedError

    def is_fault(self, inp) -> bool:
        return False


def _pt(text: str):
    return core.parse_point(text)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _special_planner(name: str):
    """(planner, span name for its section check) of a built-in."""
    if name.startswith("torus"):
        planner, _ = product.torus_planner(int(name[5:]))
        return planner, "product.torus_check_section"
    if name == "square":
        return sphere.sphere_planner_1(), "sphere.planner_check_section"
    if name in ("interval_planner", "circle_planner", "loop_planner"):
        return getattr(graph, name)(), None
    g = {"interval": graph.directed_interval,
         "circle": graph.directed_circle,
         "loop": graph.directed_loop,
         "cycle": lambda: graph.cycle_graph(4),
         "parallel": lambda: graph.parallel_edges(3),
         "figure_eight": lambda: graph.DirectedGraph(["v"], [("a", "v", "v"), ("b", "v", "v")]),
         }[name]()
    return graph.build_planner(g), None


class Certify(Workload):
    name = "certify"

    def make_ops(self):
        return gen.certify_inputs(self.seed)

    def build(self):
        for inp in self.pool:
            graph.DirectedGraph.from_json(inp["graph"])

    def _certify(self, planner, seed, span=None):
        with (self.tracer.span(span) if span else contextlib.nullcontext()):
            section = core.check_section(planner, planner.space, SECTION_SAMPLES, seed=seed)
        conts = [core.check_patch_continuity(planner, pid, CONTINUITY_PAIRS, PERTURBATION,
                                             seed=seed)
                 for pid in planner.patch_ids()]
        for c in conts:
            self.tracer.count("core.pairs_used", c.pairs_used)
            self.tracer.count("core.pairs_requested", c.pairs_requested)
        return planner, section, conts

    def run(self, inp):
        planner = graph.build_planner(graph.DirectedGraph.from_json(inp["graph"]))
        corpus = self._certify(planner, inp["seed"])
        special, span = _special_planner(inp["special"])
        return corpus, self._certify(special, inp["seed"], span)

    def check(self, inp, out):
        corpus, special = out
        known = ck.known_ditc(inp["special"])
        problems = _certificate_problems(*corpus) + _certificate_problems(*special)
        planner = corpus[0]
        if not 1 <= len(planner.patches) <= 3:
            problems.append(f"corpus planner has {len(planner.patches)} patches")
        if len(special[0].patches) != known:
            problems.append(f"{inp['special']} planner has {len(special[0].patches)} "
                            f"patches, known value {known}")
        doc = inp["graph"]
        for x, y in inp["plans"]:
            problems += ck.check_path_json(doc, planner.plan(_pt(x), _pt(y)).to_json(), x, y)
        reach = ck.ArcReach(doc)
        answers = [planner.space.membership(_pt(x), _pt(y)) for x, y in inp["pairs"]]
        return problems + ck.check_memberships(reach, inp["pairs"], answers)


def _certificate_problems(planner, section, conts) -> list:
    problems = []
    if section.samples != SECTION_SAMPLES or section.total_violations:
        problems.append(f"section check: {section.to_json()}")
    if [c.patch_id for c in conts] != planner.patch_ids():
        problems.append("continuity reports do not cover every patch")
    for c in conts:
        if c.pairs_requested != CONTINUITY_PAIRS or c.violations \
                or not c.max_ratio <= c.lipschitz_bound + 1e-6:
            problems.append(f"continuity of {c.patch_id}: {c.to_json()}")
    return problems


# ---------------------------------------------------------------------------
# graph_scale
# ---------------------------------------------------------------------------

class GraphScale(Workload):
    name = "graph_scale"

    def make_ops(self):
        return gen.graph_scale_inputs(self.seed)

    def build(self):
        for inp in self.pool:
            for gi in inp["graphs"]:
                graph.DirectedGraph.from_json(gi["graph"])

    def run(self, inp):
        out = []
        for gi in inp["graphs"]:
            g = graph.DirectedGraph.from_json(gi["graph"])
            oracle = graph.gamma(g)
            report = graph.ditc(g)
            planner = report.patchwork
            plans = [planner.plan(_pt(x), _pt(y)) for x, y in gi["plans"]]
            answers = [oracle.membership(_pt(x), _pt(y)) for x, y in gi["pairs"]]
            out.append((report, plans, answers))
        return out

    def check(self, inp, out):
        problems = []
        for gi, (report, plans, answers) in zip(inp["graphs"], out):
            doc, family = gi["graph"], gi["family"]
            problems += ck.check_memberships(ck.ArcReach(doc), gi["pairs"], answers)
            for (x, y), path in zip(gi["plans"], plans):
                pj = path.to_json()
                problems += ck.check_path_json(doc, pj, x, y)
                if family == "polytree":
                    problems += ck.check_tree_plan(doc, pj, x, y)
            rep = report.to_json()
            if family == "polytree":
                problems += ck.check_ditc(rep, 1, 1)
            elif ck.strongly_connected(doc):
                k = min(ck.betti1(doc), 2) + 1
                problems += ck.check_ditc(rep, k, k)
            else:
                problems += ck.check_ditc_bounds(rep, len(report.patchwork.patches))
        return problems


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------

def _identity(diagram) -> list:
    return [(o.id, [[int(i == j) for j in range(o.rank)] for i in range(o.rank)], o.id)
            for o in diagram.objects]


class Concurrency(Workload):
    name = "concurrency"

    def make_ops(self):
        return gen.concurrency_inputs(self.seed)

    def build(self):
        for inp in self.pool:
            pv.parse_pv(inp["program"])
            graph.DirectedGraph.from_json(inp["ladder"])
            graph.DirectedGraph.from_json(inp["dag"])

    def _diagram(self, doc, samples):
        d = nathom.factorization_diagram(graph.DirectedGraph.from_json(doc),
                                         [_pt(s) for s in samples])
        point_like, _ = nathom.is_bisimilar_to_point(d)
        bisimilar = nathom.check_bisimulation(d, d, _identity(d))
        self.tracer.count("nathom.objects", len(d.objects))
        self.tracer.count("nathom.morphisms", len(d.morphisms))
        return d, point_like, bisimilar

    def run(self, inp):
        prog = pv.parse_pv(inp["program"])
        sched = pv.schedule(prog, inp["src"], inp["dst"])
        oracle = pv.pv_gamma(prog)
        answers = [oracle.membership(a, b) for a, b in inp["queries"]]
        self.tracer.count("pv.schedule_points", len(sched.points))
        return (sched, answers, self._diagram(inp["ladder"], inp["ladder_samples"]),
                self._diagram(inp["dag"], inp["dag_samples"]))

    def check(self, inp, out):
        sched, answers, *diagrams = out
        text = inp["program"]
        problems = ck.check_schedule(text, inp["src"], inp["dst"], sched.resolution,
                                     sched.to_json())
        auto = ck.StepAutomaton(text)
        want = [auto.reaches(a, b) for a, b in inp["queries"]]
        if answers != want:
            problems.append(f"PV membership {answers}, step automaton says {want}")
        for (d, point_like, bisimilar), key in zip(diagrams, ("ladder", "dag")):
            problems += _diagram_problems(inp[key], inp[key + "_samples"], d,
                                          point_like, bisimilar)
        return problems


def _diagram_problems(doc, samples, d, point_like, bisimilar) -> list:
    objects = d.to_json()["objects"]
    problems = ck.check_diagram(doc, objects) + ck.check_samples_covered(doc, samples, objects)
    if point_like != all(o["rank"] == 1 for o in objects):
        problems.append(f"is_bisimilar_to_point says {point_like}")
    if bisimilar is not True:
        problems.append("the identity relation is not accepted as a bisimulation")
    unit = next(o for o in d.objects if o.rank == 1)
    try:
        nathom.check_bisimulation(d, d, [(unit.id, [[2]], unit.id)])
        problems.append("a [[2]] relation was accepted")
    except nathom.NotIso:
        pass
    return problems


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------

class CliOneshot(Workload):
    """One ``ditopo`` process per op, or with ``in_process`` set, one call
    of ``cli.main`` in this process."""

    name = "cli_oneshot"
    in_process = False      # the traced run sets it, to see inside requests

    def make_ops(self):
        rounds = gen.write_cli_files(gen.cli_inputs(self.seed), self.workdir)
        self.round_size = len(rounds[0]["requests"])
        ops = []
        for rnd in rounds:
            for kind, argv, info in rnd["requests"]:
                ops.append({"kind": kind, "argv": argv, "info": info, "files": rnd["files"]})
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.peak_rss_kb = 0
        return ops

    def run(self, inp):
        if self.in_process:
            return _main_in_process(inp["argv"])
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "ditopo"] + inp["argv"],
                                    stdout=out, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return (proc.returncode, out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8"))

    def is_fault(self, inp):
        return inp["info"].get("fault", False)

    def check(self, inp, out):
        code, stdout, stderr = out
        problems = ck.check_exit(code, stderr)
        kind, info, argv = inp["kind"], inp["info"], inp["argv"]
        if kind.startswith("bad_"):
            return problems     # malformed input: any refusal without a traceback
        if code != 0:
            return problems + [f"{kind} exited {code}: {stderr.strip()[-200:]}"]
        doc = json.loads(stdout)
        files = inp["files"]
        if kind == "graph_ditc":
            g = files[info["file"]]
            k = min(ck.betti1(g), 2) + 1
            problems += ck.check_ditc(doc, k, k)
        elif kind == "graph_plan":
            problems += ck.check_path_json(files[info["file"]], doc["path"], info["x"], info["y"])
        elif kind == "graph_gamma":
            reach = ck.ArcReach(files[info["file"]])
            problems += ck.check_memberships(reach, [(info["x"], info["y"])], [doc["member"]])
        elif kind == "torus_plan":
            n = info["n"]
            problems += ck.check_ditc(doc["ditc"], n + 1, n + 1)
            xs, ys = _arg(argv, "--from").split(","), _arg(argv, "--to").split(",")
            loop = {"vertices": ["v"], "edges": [{"id": "l", "src": "v", "dst": "v"}]}
            for path, a, b in zip(doc["paths"], xs, ys):
                problems += ck.check_path_json(loop, path, _turn_point(a), _turn_point(b))
        elif kind == "pv_schedule":
            problems += ck.check_schedule(info["program"], (0, 0), (4, 4), 8, doc)
        elif kind == "pv_regions":
            got = sorted((r["semaphore"], *r["x"], *r["y"]) for r in doc["rectangles"])
            if got != ck.pv_rects(info["program"]):
                problems.append(f"rectangles {got}, want {ck.pv_rects(info['program'])}")
        elif kind in ("sphere_reach", "sphere_off_lattice"):
            x, y = (tuple(map(float, _arg(argv, flag).split(","))) for flag in ("--from", "--to"))
            if doc["member"] is not ck.sphere_reach(x, y):
                problems.append(f"sphere reach {x} -> {y} says {doc['member']}")
        elif kind in ("nathom_build", "nathom_point_check"):
            g, samples = files[info["file"]], info["samples"]
            if kind == "nathom_build":
                problems += ck.check_diagram(g, doc["objects"])
                problems += ck.check_samples_covered(g, samples, doc["objects"])
            else:
                ranks_one = all(ck.count_paths(g, x, y) <= 1 for x in samples for y in samples)
                if doc["bisimilar_to_point"] is not ranks_one:
                    problems.append(f"point-check says {doc['bisimilar_to_point']}")
        elif kind == "check_section":
            if doc["samples"] != 100 or doc["violations"]:
                problems.append(f"check section: {doc}")
        elif kind == "check_continuity":
            if doc["pairs_requested"] != 30 or doc["violations"]:
                problems.append(f"check continuity: {doc}")
        return problems


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _turn_point(text: str) -> str:
    t = float(text) % 1.0
    return "v:v" if t == 0.0 else f"e:l:{t}"


def _main_in_process(argv) -> tuple:
    """``cli.main`` in this process; an escaping exception is reported the
    way the interpreter would report it, as exit 1 with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # noqa: BLE001 - the process would die with this traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (Certify, GraphScale, Concurrency, CliOneshot)}
