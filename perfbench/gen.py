"""Seeded input generation for every workload.

Pure standard library: the program sees only the plain data made here
(graph JSON documents, point strings, PV program text, CLI argument lists).
The same seed always gives the same inputs.  Sizes are fixed per slot and
only the structure is drawn at random, so two seeds give inputs of the same
make-up and the per-op cost distribution stays put across seeds.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from checkers import StepAutomaton, pv_rects

TS = (0.25, 0.5, 0.75)           # interior parameters, all on the 1/4 arc grid


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(repr((seed,) + salt))


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------

def _doc(vertices, edges) -> dict:
    return {"vertices": list(vertices),
            "edges": [{"id": e, "src": s, "dst": d} for e, s, d in edges]}


def random_tree_edges(rng, vertices) -> list:
    """A random spanning tree with random edge directions."""
    edges = []
    for i in range(1, len(vertices)):
        p = vertices[rng.randrange(i)]
        pair = (p, vertices[i]) if rng.random() < 0.5 else (vertices[i], p)
        edges.append((f"e{len(edges)}",) + pair)
    return edges


def multigraph(rng, nv: int, ne: int) -> dict:
    """Connected: a random spanning tree plus random extra edges (loops and
    parallel edges allowed)."""
    vertices = [f"v{i}" for i in range(nv)]
    edges = random_tree_edges(rng, vertices)
    while len(edges) < ne:
        edges.append((f"e{len(edges)}", rng.choice(vertices), rng.choice(vertices)))
    return _doc(vertices, edges)


def strong_graph(rng, nv: int, ne: int) -> dict:
    """Strongly connected: a directed Hamiltonian cycle plus random chords."""
    vertices = [f"v{i}" for i in range(nv)]
    order = vertices[:]
    rng.shuffle(order)
    edges = [(f"e{i}", order[i], order[(i + 1) % nv]) for i in range(nv)]
    while len(edges) < ne:
        edges.append((f"e{len(edges)}", rng.choice(vertices), rng.choice(vertices)))
    return _doc(vertices, edges)


def polytree(rng, nv: int) -> dict:
    vertices = [f"v{i}" for i in range(nv)]
    return _doc(vertices, random_tree_edges(rng, vertices))


def small_dag(rng, nv: int, ne: int) -> dict:
    """Edges only go forward in a random vertex order; parallels allowed."""
    vertices = [f"v{i}" for i in range(nv)]
    order = vertices[:]
    rng.shuffle(order)
    edges = [(f"e{i}", order[i], order[i + 1]) for i in range(nv - 1)]
    while len(edges) < ne:
        a, b = sorted(rng.sample(range(nv), 2))
        edges.append((f"e{len(edges)}", order[a], order[b]))
    return _doc(vertices, edges)


def diamond_ladder(rng, k: int) -> dict:
    """k diamonds in a row; each is two parallel edges or two 2-edge paths."""
    vertices = [f"j{i}" for i in range(k + 1)]
    edges = []
    for i in range(k):
        a, b = f"j{i}", f"j{i + 1}"
        if rng.random() < 0.5:
            edges += [(f"a{i}", a, b), (f"b{i}", a, b)]
        else:
            vertices += [f"u{i}", f"w{i}"]
            edges += [(f"a{i}", a, f"u{i}"), (f"c{i}", f"u{i}", b),
                      (f"b{i}", a, f"w{i}"), (f"d{i}", f"w{i}", b)]
    return _doc(vertices, edges)


# ---------------------------------------------------------------------------
# Points and query pairs
# ---------------------------------------------------------------------------

def random_point(rng, doc: dict) -> str:
    nv, ne = len(doc["vertices"]), len(doc["edges"])
    idx = rng.randrange(nv + ne)
    if idx < nv:
        return f"v:{doc['vertices'][idx]}"
    return f"e:{doc['edges'][idx - nv]['id']}:{rng.choice(TS)}"


def reachable_pair(rng, doc: dict, max_walk: int) -> tuple:
    """A pair joined by a directed path, made by a random forward walk."""
    out: dict = {v: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        out[e["src"]].append(e)
    x = random_point(rng, doc)
    if x.startswith("e:"):
        _, eid, t = x.split(":")
        edge = next(e for e in doc["edges"] if e["id"] == eid)
        if rng.random() < 0.2:
            return x, f"e:{eid}:{rng.choice([s for s in TS if s >= float(t)])}"
        v = edge["dst"]
    else:
        v = x[2:]
    for _ in range(rng.randrange(max_walk + 1)):
        if not out[v]:
            break
        v = rng.choice(out[v])["dst"]
    if out[v] and rng.random() < 0.5:
        return x, f"e:{rng.choice(out[v])['id']}:{rng.choice(TS)}"
    return x, f"v:{v}"


def random_pairs(rng, doc: dict, n: int) -> list:
    return [(random_point(rng, doc), random_point(rng, doc)) for _ in range(n)]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

CERTIFY_CORPUS = 256
# Planners with a known complexity value, certified one per op in rotation.
SPECIALS = ("interval", "circle", "loop", "cycle", "parallel", "figure_eight",
            "interval_planner", "circle_planner", "loop_planner",
            "torus1", "torus2", "torus3", "square")


def certify_inputs(seed: int) -> list:
    """One op per corpus graph (up to 8 vertices, 14 edges, sizes fixed per
    slot), each paired with the next special planner of the rotation."""
    rng = _rng(seed, "certify")
    ops = []
    for i in range(CERTIFY_CORPUS):
        nv = 1 + i % 8
        ne = nv - 1 + (i // 8 % 6) * (15 - nv) // 5
        doc = multigraph(rng, nv, ne)
        ops.append({
            "graph": doc,
            "special": SPECIALS[i % len(SPECIALS)],
            "seed": rng.randrange(2 ** 31),
            "plans": [reachable_pair(rng, doc, 4) for _ in range(4)],
            "pairs": random_pairs(rng, doc, 8),
        })
    return ops


# ---------------------------------------------------------------------------
# graph_scale
# ---------------------------------------------------------------------------

GRAPH_POOL = 96
GRAPH_V = 200
PLAN_QUERIES = 8
MEMBERSHIP_QUERIES = 16


def graph_scale_inputs(seed: int) -> list:
    """Each op: one random multigraph, one strongly connected graph and one
    polytree, all with GRAPH_V vertices, plus their query pairs."""
    rng = _rng(seed, "graph_scale")
    ops = []
    for _ in range(GRAPH_POOL):
        graphs = []
        for family, doc in (("multigraph", multigraph(rng, GRAPH_V, 2 * GRAPH_V)),
                            ("strong", strong_graph(rng, GRAPH_V, 2 * GRAPH_V)),
                            ("polytree", polytree(rng, GRAPH_V))):
            graphs.append({
                "family": family,
                "graph": doc,
                "plans": [reachable_pair(rng, doc, 12) for _ in range(PLAN_QUERIES)],
                "pairs": random_pairs(rng, doc, MEMBERSHIP_QUERIES),
            })
        ops.append({"graphs": graphs})
    return ops


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------

CONCURRENCY_POOL = 192
PV_ACTIONS = 10
LADDER_K = 3


def pv_process(rng, n: int, sems: str = "abc") -> list:
    """A well-bracketed sequence of n actions (n even)."""
    out, held = [], []
    while len(out) < n:
        left = n - len(out)
        free = [s for s in sems if s not in held]
        if held and (left <= len(held) or not free or rng.random() < 0.5):
            out.append("V" + held.pop(rng.randrange(len(held))))
        else:
            s = rng.choice(free)
            held.append(s)
            out.append("P" + s)
    return out


def pv_program(rng, n: int, sems: str = "abc") -> str:
    """A two-process program with at least one forbidden rectangle whose
    full run (0,0) -> (n,n) is schedulable."""
    while True:
        text = ".".join(pv_process(rng, n, sems)) + "|" + ".".join(pv_process(rng, n, sems))
        if pv_rects(text) and StepAutomaton(text).reaches((0, 0), (n, n)):
            return text


def concurrency_inputs(seed: int) -> list:
    rng = _rng(seed, "concurrency")
    ops = []
    for _ in range(CONCURRENCY_POOL):
        text = pv_program(rng, PV_ACTIONS)
        # three distinct sources next to the origin: each query searches most
        # of the grid once, as the oracle caches per source
        queries = [(a, (rng.randrange(a[0], PV_ACTIONS + 1), rng.randrange(a[1], PV_ACTIONS + 1)))
                   for a in ((0, 0), (0, 1), (1, 0))]
        ladder = diamond_ladder(rng, LADDER_K)
        dag = small_dag(rng, 5, 7)
        ops.append({
            "program": text,
            "src": (0, 0),
            "dst": (PV_ACTIONS, PV_ACTIONS),
            "queries": queries,
            "ladder": ladder,
            "ladder_samples": [f"v:j{i}" for i in range(LADDER_K + 1)],
            "dag": dag,
            "dag_samples": [f"v:{v}" for v in dag["vertices"]],
        })
    return ops


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------

CLI_ROUNDS = 8

# Requests that fail every time today, whatever the seed.  Each is a fault
# in the program, kept so that a fix shows as fewer failed ops.
FAULT_REQUESTS = (
    # sphere_gamma quantises to 1/16, so (0, 0.01) gets a false 0-facet and
    # the pair is reported reachable; the exact relation says it is not.
    ("sphere_off_lattice", ["sphere", "reach", "-n", "1", "--from", "0,0.01", "--to", "1,0.5"]),
    # malformed input that ends in a Python traceback
    ("bad_point", ["graph", "plan", "@circle", "--from", "e:top:abc", "--to", "v:e"]),
    ("bad_pv_point", ["pv", "schedule", "Pa.Va|Pa.Va", "--from", "a,b", "--to", "2,2"]),
    ("bad_sphere_dim", ["sphere", "reach", "-n", "0", "--from", "0,0", "--to", "1,1"]),
    ("bad_resolution", ["pv", "schedule", "Pa.Va|Pa.Va", "--from", "0,0", "--to", "2,2",
                        "--resolution", "1"]),
)

CIRCLE = _doc(["b", "e"], [("top", "b", "e"), ("bot", "b", "e")])


def sphere_point(rng, n: int) -> tuple:
    """A boundary point of the (n+1)-cube on the 1/16 lattice."""
    i = rng.randrange(n + 1)
    return tuple(float(rng.randrange(2)) if j == i else rng.randrange(17) / 16
                 for j in range(n + 1))


def _turns(rng, n: int) -> str:
    return ",".join(str(rng.randrange(8) / 8) for _ in range(n))


def cli_inputs(seed: int) -> list:
    """CLI_ROUNDS rounds; each round runs every subcommand once on tiny
    seeded inputs, then the fixed fault requests.  Graph files are named
    ``@<name>`` here and written out by ``write_cli_files``."""
    rng = _rng(seed, "cli_oneshot")
    rounds = []
    for r in range(CLI_ROUNDS):
        files = {
            "strong": strong_graph(rng, 5, 8),
            "multi": multigraph(rng, 6, 9),
            "dag": small_dag(rng, 4, 6),
            "circle": CIRCLE,
        }
        reqs = []
        reqs.append(("graph_ditc", ["graph", "ditc", "@strong"], {"file": "strong"}))
        x, y = reachable_pair(rng, files["multi"], 4)
        reqs.append(("graph_plan", ["graph", "plan", "@multi", "--from", x, "--to", y],
                     {"file": "multi", "x": x, "y": y}))
        (x, y), = random_pairs(rng, files["multi"], 1)
        reqs.append(("graph_gamma", ["graph", "gamma", "@multi", "--from", x, "--to", y],
                     {"file": "multi", "x": x, "y": y}))
        n = 1 + r % 3
        reqs.append(("torus_plan", ["torus", "plan", "--n", str(n), "--from", _turns(rng, n),
                                    "--to", _turns(rng, n)], {"n": n}))
        prog = pv_program(rng, 4, "ab")
        reqs.append(("pv_schedule", ["pv", "schedule", prog, "--from", "0,0", "--to", "4,4"],
                     {"program": prog}))
        reqs.append(("pv_regions", ["pv", "regions", prog], {"program": prog}))
        n = 1 + r % 2
        while True:
            a, b = sphere_point(rng, n), sphere_point(rng, n)
            if all(p <= q for p, q in zip(a, b)):
                break
        reqs.append(("sphere_reach", ["sphere", "reach", "-n", str(n),
                                      "--from", ",".join(map(str, a)),
                                      "--to", ",".join(map(str, b))], {}))
        samples = ",".join(f"v:{v}" for v in files["dag"]["vertices"])
        reqs.append(("nathom_build", ["nathom", "build", "@dag", "--samples", samples],
                     {"file": "dag", "samples": samples.split(",")}))
        reqs.append(("nathom_point_check", ["nathom", "point-check", "@dag",
                                            "--samples", samples],
                     {"file": "dag", "samples": samples.split(",")}))
        reqs.append(("check_section", ["--seed", str(rng.randrange(1000)), "check", "section",
                                       "@multi", "--samples", "100"], {}))
        reqs.append(("check_continuity", ["--seed", str(rng.randrange(1000)), "check",
                                          "continuity", "@strong", "--patch", "F3",
                                          "--pairs", "30"], {}))
        for name, argv in FAULT_REQUESTS:
            reqs.append((name, argv, {"fault": True}))
        rounds.append({"files": files, "requests": reqs})
    return rounds


def write_cli_files(rounds: list, directory: Path) -> list:
    """Write each round's graph files and resolve ``@name`` arguments."""
    directory.mkdir(parents=True, exist_ok=True)
    resolved = []
    for r, rnd in enumerate(rounds):
        paths = {}
        for name, doc in rnd["files"].items():
            path = directory / f"r{r}-{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths[name] = str(path)
        reqs = []
        for kind, argv, info in rnd["requests"]:
            argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
            reqs.append((kind, argv, info))
        resolved.append({"files": rnd["files"], "requests": reqs})
    return resolved
