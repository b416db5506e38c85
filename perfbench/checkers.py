"""Output checkers that work apart from ditopo.

Nothing here imports the library.  Each checker derives the expected answer
from the benchmark's own generated inputs with a different method than the
library uses (arc-discretised BFS, tree walks, union-find, a program-step
automaton, path-counting DP, a closed form), so a wrong library answer cannot
be echoed back as a right one.  Each checker returns a list of problems; an
empty list means the output is correct.

Graphs are JSON documents ``{"vertices": [...], "edges": [{"id", "src",
"dst"}]}`` and graph points are the CLI's text form ``v:<vertex>`` or
``e:<edge>:<t>``.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

TOL = 1e-9


# ---------------------------------------------------------------------------
# Graph points and reachability by BFS over edges discretised into arcs
# ---------------------------------------------------------------------------

def parse_point(text: str) -> tuple:
    """``("v", name)`` or ``("e", edge, t)``."""
    parts = text.split(":")
    if len(parts) == 2 and parts[0] == "v":
        return ("v", parts[1])
    if len(parts) == 3 and parts[0] == "e":
        return ("e", parts[1], float(parts[2]))
    raise ValueError(f"bad point {text!r}")


def edge_map(doc: dict) -> dict:
    return {e["id"]: (e["src"], e["dst"]) for e in doc["edges"]}


class ArcReach:
    """Each edge becomes a chain of ``arcs`` forward arcs; reachability is
    plain BFS over chain nodes.  Interior points must sit at t = k / arcs."""

    def __init__(self, doc: dict, arcs: int = 4):
        self.arcs = arcs
        self.succ: dict = {("v", v): [] for v in doc["vertices"]}
        for e in doc["edges"]:
            prev = ("v", e["src"])
            for k in range(1, arcs):
                node = ("e", e["id"], k)
                self.succ[node] = []
                self.succ[prev].append(node)
                prev = node
            self.succ[prev].append(("v", e["dst"]))
        self._from: dict = {}

    def node(self, p: tuple) -> tuple:
        if p[0] == "v":
            return p
        k = round(p[2] * self.arcs)
        if not (0 < k < self.arcs and abs(k - p[2] * self.arcs) < 1e-9):
            raise ValueError(f"point {p} is not on the 1/{self.arcs} arc grid")
        return ("e", p[1], k)

    def reaches(self, x: tuple, y: tuple) -> bool:
        a, b = self.node(x), self.node(y)
        if a not in self._from:
            seen = {a}
            queue = deque([a])
            while queue:
                for nxt in self.succ[queue.popleft()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            self._from[a] = seen
        return b in self._from[a]


def check_memberships(reach: ArcReach, pairs, answers) -> list:
    if len(answers) != len(pairs):
        return [f"{len(answers)} membership answers for {len(pairs)} queries"]
    problems = []
    for (x, y), got in zip(pairs, answers):
        want = reach.reaches(parse_point(x), parse_point(y))
        if got is not want:
            problems.append(f"membership {x} -> {y}: got {got}, want {want}")
    return problems


# ---------------------------------------------------------------------------
# Planned paths, checked step by step from their JSON
# ---------------------------------------------------------------------------

def _same_point(p: tuple, q: tuple) -> bool:
    if p[0] != q[0] or p[1] != q[1]:
        return False
    return p[0] == "v" or abs(p[2] - q[2]) <= TOL


def _point_at(edges: dict, edge: str, t: float) -> tuple:
    if t <= TOL:
        return ("v", edges[edge][0])
    if t >= 1.0 - TOL:
        return ("v", edges[edge][1])
    return ("e", edge, t)


def check_path_json(doc: dict, path: dict, x: str, y: str) -> list:
    """Forward steps on real edges, each step starting where the last one
    ended, from x to y.  A step-free path must sit at x = y, a vertex."""
    edges = edge_map(doc)
    px, py = parse_point(x), parse_point(y)
    steps = path.get("steps", [])
    if not steps:
        at = parse_point(path["at"])
        if at[0] != "v" or not (_same_point(at, px) and _same_point(at, py)):
            return [f"constant path at {path['at']} does not join {x} to {y}"]
        return []
    problems = []
    prev_end = None
    for k, s in enumerate(steps):
        if s["edge"] not in edges:
            return [f"step {k} uses unknown edge {s['edge']!r}"]
        t0, t1 = s["from"], s["to"]
        if not (-TOL <= t0 <= t1 <= 1.0 + TOL):
            problems.append(f"step {k} on {s['edge']} is not forward in [0,1]: {t0}..{t1}")
        start = _point_at(edges, s["edge"], t0)
        if prev_end is not None and not _same_point(prev_end, start):
            problems.append(f"gap between step {k - 1} and step {k}: {prev_end} vs {start}")
        prev_end = _point_at(edges, s["edge"], t1)
    first = _point_at(edges, steps[0]["edge"], steps[0]["from"])
    if not _same_point(first, px):
        problems.append(f"path starts at {first}, not {x}")
    if not _same_point(prev_end, py):
        problems.append(f"path ends at {prev_end}, not {y}")
    return problems


def tree_path(doc: dict, x: str, y: str) -> list:
    """The edge sequence of the unique directed path from x to y in a
    polytree (a tree when directions are ignored), or None if none exists."""
    edges = edge_map(doc)
    px, py = parse_point(x), parse_point(y)
    if px[0] == "e" and py[0] == "e" and px[1] == py[1] and px[2] <= py[2] + TOL:
        return [px[1]]
    exit_v = px[1] if px[0] == "v" else edges[px[1]][1]
    entry_v = py[1] if py[0] == "v" else edges[py[1]][0]
    adj: dict = {v: [] for v in doc["vertices"]}
    for eid, (s, d) in edges.items():
        adj[s].append((d, eid, True))
        adj[d].append((s, eid, False))
    parent = {exit_v: None}
    queue = deque([exit_v])
    while queue:
        u = queue.popleft()
        for w, eid, forward in adj[u]:
            if w not in parent:
                parent[w] = (u, eid, forward)
                queue.append(w)
    if entry_v not in parent:
        return None
    middle = []
    v = entry_v
    while parent[v] is not None:
        u, eid, forward = parent[v]
        if not forward:
            return None
        middle.append(eid)
        v = u
    middle.reverse()
    return ([px[1]] if px[0] == "e" else []) + middle + ([py[1]] if py[0] == "e" else [])


def check_tree_plan(doc: dict, path: dict, x: str, y: str) -> list:
    want = tree_path(doc, x, y)
    got = [s["edge"] for s in path.get("steps", [])]
    if want is None:
        return [f"no directed tree path from {x} to {y}, yet a plan was returned"]
    if got != want:
        return [f"plan {x} -> {y} runs {got}, the unique tree path is {want}"]
    return []


# ---------------------------------------------------------------------------
# Complexity values
# ---------------------------------------------------------------------------

def betti1(doc: dict) -> int:
    """First Betti number of the underlying multigraph, by union-find."""
    parent = {v: v for v in doc["vertices"]}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = len(parent)
    for e in doc["edges"]:
        a, b = find(e["src"]), find(e["dst"])
        if a != b:
            parent[a] = b
            components -= 1
    return len(doc["edges"]) - len(doc["vertices"]) + components


def strongly_connected(doc: dict) -> bool:
    """Every vertex reaches and is reached from the first one."""
    vertices = doc["vertices"]
    fwd = {v: [] for v in vertices}
    bwd = {v: [] for v in vertices}
    for e in doc["edges"]:
        fwd[e["src"]].append(e["dst"])
        bwd[e["dst"]].append(e["src"])

    def closure(adj):
        seen = {vertices[0]}
        queue = deque(seen)
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(vertices)

    return closure(fwd) and closure(bwd)


# Known directed complexities of the built-in spaces and planners.
KNOWN_DITC = {"interval": 1, "circle": 2, "loop": 2, "cycle": 2, "parallel": 2,
              "figure_eight": 3, "interval_planner": 1, "circle_planner": 2,
              "loop_planner": 2, "square": 2}


def known_ditc(name: str) -> int:
    """The known value for a built-in; the n-torus has n + 1."""
    if name.startswith("torus"):
        return int(name[5:]) + 1
    return KNOWN_DITC[name]


def check_ditc(report: dict, lower: int, upper: int) -> list:
    got = (report["lower"], report["upper"], report["exact"])
    want = (lower, upper, lower == upper)
    if got != want:
        return [f"ditc {got}, want {want}"]
    return []


def check_ditc_bounds(report: dict, patches: int) -> list:
    """For graphs with no closed form: sane bounds and a matching witness."""
    lo, hi = report["lower"], report["upper"]
    problems = []
    if not (1 <= lo <= hi <= 3) or report["exact"] != (lo == hi):
        problems.append(f"ditc bounds {lo}..{hi} exact={report['exact']} are inconsistent")
    if patches != hi:
        problems.append(f"witness has {patches} patches for upper bound {hi}")
    return problems


# ---------------------------------------------------------------------------
# Trace classes: path counting by DP (finite trace spaces only)
# ---------------------------------------------------------------------------

def count_paths(doc: dict, x: str, y: str) -> int:
    """Number of trace classes (directed edge sequences) from x to y in a DAG."""
    edges = edge_map(doc)
    px, py = parse_point(x), parse_point(y)
    same_edge = px[0] == "e" and py[0] == "e" and px[1] == py[1]
    if same_edge and abs(px[2] - py[2]) <= TOL:
        return 1
    base = 1 if same_edge and px[2] < py[2] else 0
    exit_v = px[1] if px[0] == "v" else edges[px[1]][1]
    entry_v = py[1] if py[0] == "v" else edges[py[1]][0]
    if px[0] == "v" and py[0] == "v" and exit_v == entry_v:
        return 1
    out: dict = {v: [] for v in doc["vertices"]}
    for s, d in edges.values():
        out[s].append(d)
    memo: dict = {}

    def paths(u):
        if u not in memo:
            memo[u] = (1 if u == entry_v else 0) + sum(paths(w) for w in out[u])
        return memo[u]

    return base + paths(exit_v)


def check_diagram(doc: dict, objects: list) -> list:
    """Every object's rank equals the path count between its endpoints, and
    each reachable ordered sample pair contributes that many objects."""
    problems = []
    per_pair: dict = {}
    for o in objects:
        want = count_paths(doc, o["source"], o["target"])
        if o["rank"] != want:
            problems.append(f"object {o['id']} has rank {o['rank']}, {want} paths")
        per_pair[(o["source"], o["target"])] = per_pair.get((o["source"], o["target"]), 0) + 1
    for (x, y), n in per_pair.items():
        if n != count_paths(doc, x, y):
            problems.append(f"pair {x} -> {y} has {n} objects")
    return problems


def check_samples_covered(doc: dict, samples: list, objects: list) -> list:
    want = sum(count_paths(doc, x, y) for x in samples for y in samples)
    if len(objects) != want:
        return [f"diagram has {len(objects)} objects, path counts give {want}"]
    return []


# ---------------------------------------------------------------------------
# PV programs: rectangles, a program-step automaton, schedule replay
# ---------------------------------------------------------------------------

def pv_processes(text: str) -> tuple:
    """Two lists of (op, semaphore) from "Pa.Va|Pb.Vb"."""
    return tuple([(a[0], a[1:]) for a in part.split(".")] if part else []
                 for part in text.split("|"))


def _lock_spans(actions) -> list:
    spans, pending = [], {}
    for idx, (op, sem) in enumerate(actions, start=1):
        if op == "P":
            pending[sem] = idx
        else:
            spans.append((sem, pending.pop(sem), idx))
    return spans


def pv_rects(text: str) -> list:
    """Open forbidden rectangles (sem, x1, x2, y1, y2), sorted."""
    p1, p2 = pv_processes(text)
    return sorted((s, a, b, c, d) for (s, a, b) in _lock_spans(p1)
                  for (t, c, d) in _lock_spans(p2) if s == t)


class StepAutomaton:
    """States count the actions each process has done; a move runs one action.

    Process 1 executing its next action i -> i + 1 is blocked exactly when
    some semaphore is held by process 1 across that action (locked at or
    before i, released after) while process 2 strictly holds it at j (locked
    before j, released after j); symmetrically for process 2.
    """

    def __init__(self, text: str):
        self.p1, self.p2 = pv_processes(text)
        self.spans1, self.spans2 = _lock_spans(self.p1), _lock_spans(self.p2)

    @staticmethod
    def _open(spans, pos):
        return {s for s, a, b in spans if a < pos < b}

    @staticmethod
    def _across(spans, pos):
        return {s for s, a, b in spans if a <= pos and pos + 1 <= b}

    def valid(self, state) -> bool:
        return not (self._open(self.spans1, state[0]) & self._open(self.spans2, state[1]))

    def moves(self, state):
        i, j = state
        if i < len(self.p1) and not (self._across(self.spans1, i) & self._open(self.spans2, j)):
            yield (i + 1, j)
        if j < len(self.p2) and not (self._open(self.spans1, i) & self._across(self.spans2, j)):
            yield (i, j + 1)

    def reaches(self, start, goal) -> bool:
        start, goal = tuple(start), tuple(goal)
        if not (self.valid(start) and self.valid(goal)):
            return False
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            if cur == goal:
                return True
            for nxt in self.moves(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False


def check_schedule(text: str, src, dst, resolution: int, sched: dict) -> list:
    """Monotone unit grid moves from src to dst that never enter or cross an
    open forbidden rectangle, and an interleaving that is the programs' own
    actions and keeps every semaphore exclusive."""
    problems = []
    pts = [(Fraction(x).limit_denominator(resolution), Fraction(y).limit_denominator(resolution))
           for x, y in sched["path"]]
    if pts[0] != (Fraction(src[0]), Fraction(src[1])) or \
            pts[-1] != (Fraction(dst[0]), Fraction(dst[1])):
        problems.append(f"schedule runs {pts[0]} -> {pts[-1]}, not {src} -> {dst}")
    unit = Fraction(1, resolution)
    rects = pv_rects(text)
    for p, q in zip(pts, pts[1:]):
        dx, dy = q[0] - p[0], q[1] - p[1]
        if (dx, dy) not in ((unit, 0), (0, unit)):
            problems.append(f"move {p} -> {q} is not one forward grid step")
            break
        for sem, x1, x2, y1, y2 in rects:
            inside = x1 < q[0] < x2 and y1 < q[1] < y2
            crosses = (dy == 0 and y1 < p[1] < y2 and x1 <= p[0] and q[0] <= x2) or \
                      (dx == 0 and x1 < p[0] < x2 and y1 <= p[1] and q[1] <= y2)
            if inside or crosses:
                problems.append(f"move {p} -> {q} passes through the {sem} rectangle")
                break
    problems += check_interleaving(text, src, dst, sched["interleaving"])
    return problems


def check_interleaving(text: str, src, dst, interleaving) -> list:
    """Replay with the benchmark's own semaphore counters."""
    procs = pv_processes(text)
    held: dict = {}
    done = [[], []]
    problems = []
    for item in interleaving:
        who, action = item.split(":", 1)
        op, sem = action[0], action[1:]
        done[int(who) - 1].append((op, sem))
        if op == "P":
            if held.get(sem):
                problems.append(f"{item} locks {sem} while process {held[sem]} holds it")
            held[sem] = who
        else:
            if held.get(sem) != who:
                problems.append(f"{item} releases {sem} that it does not hold")
            held[sem] = None
    for k in range(2):
        want = procs[k][int(src[k]):int(dst[k])]
        if done[k] != want:
            problems.append(f"process {k + 1} ran {done[k]}, program says {want}")
    return problems


# ---------------------------------------------------------------------------
# Cube boundaries: the closed-form reachability relation
# ---------------------------------------------------------------------------

def sphere_reach(x, y) -> bool:
    """x reaches y on the boundary of the cube iff x <= y componentwise and
    x = y, or they share a facet (x_i = y_i in {0, 1}), or x_i = 0 and
    y_j = 1 for some i != j."""
    if any(b < a for a, b in zip(x, y)):
        return False
    if tuple(x) == tuple(y):
        return True
    if any(a == b and a in (0.0, 1.0) for a, b in zip(x, y)):
        return True
    zeros = [i for i, a in enumerate(x) if a == 0.0]
    ones = [j for j, b in enumerate(y) if b == 1.0]
    return any(i != j for i in zeros for j in ones)


def lattice_reach(x, y, grid: int) -> bool:
    """Brute force: monotone unit moves on the boundary lattice of [0, grid]^d."""
    a = tuple(round(c * grid) for c in x)
    b = tuple(round(c * grid) for c in y)
    if any(q < p for p, q in zip(a, b)):
        return False
    seen = {a}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            return True
        for i in range(len(cur)):
            if cur[i] < b[i]:
                nxt = cur[:i] + (cur[i] + 1,) + cur[i + 1:]
                if nxt not in seen and any(c in (0, grid) for c in nxt):
                    seen.add(nxt)
                    queue.append(nxt)
    return False


# ---------------------------------------------------------------------------
# CLI processes
# ---------------------------------------------------------------------------

def check_exit(code: int, stderr: str) -> list:
    """Exit codes are 0, 1 or 2, and a usage error prints no traceback."""
    if code not in (0, 1, 2):
        return [f"exit code {code}"]
    if code == 1 and "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return [f"exit 1 with a traceback: {last}"]
    return []
