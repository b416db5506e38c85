"""Span tracing from outside the program.

``Tracer.install`` wraps public functions and methods of ditopo by
rebinding them in every ditopo module that holds them; nothing in the
package changes on disk, and untraced runs install nothing.  Spans carry
the op id, the parent span and the workload pass they belong to.  Repeated
calls of one function under the same parent span in one op are merged into
one span with a call count, so hot leaves (``membership``, ``sample_pair``)
cost one record per op instead of one per call.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# span name -> (module, attribute path) of the function it wraps
TARGETS = {
    "core.check_section": ("ditopo.core", "check_section"),
    "core.check_patch_continuity": ("ditopo.core", "check_patch_continuity"),
    "core.path_sup_distance": ("ditopo.core", "path_sup_distance"),
    "core.sample_pair": ("ditopo.core", "sample_pair"),
    "graph.gamma": ("ditopo.graph", "gamma"),
    "graph.ditc": ("ditopo.graph", "ditc"),
    "graph.build_planner": ("ditopo.graph", "build_planner"),
    "graph.traces_between": ("ditopo.graph", "traces_between"),
    "graph.membership": ("ditopo.graph", "GammaOracle.membership"),
    "graph.plan": ("ditopo.core", "Patchwork.plan"),
    "pv.schedule": ("ditopo.pv", "schedule"),
    "pv.membership": ("ditopo.pv", "PVGamma.membership"),
    "sphere.gamma": ("ditopo.sphere", "sphere_gamma"),
    "nathom.diagram": ("ditopo.nathom", "factorization_diagram"),
    "nathom.point_check": ("ditopo.nathom", "is_bisimilar_to_point"),
    "nathom.bisimulation": ("ditopo.nathom", "check_bisimulation"),
    "cli.main": ("ditopo.cli", "main"),
}


class Span:
    __slots__ = ("id", "parent", "op", "workload", "name", "calls", "total", "child",
                 "children")

    def __init__(self, sid, parent, op, workload, name):
        self.id, self.parent, self.op, self.workload, self.name = sid, parent, op, workload, name
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.children: dict = {}

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "workload": self.workload, "name": self.name, "calls": self.calls,
                "total_ms": self.total * 1e3, "self_ms": (self.total - self.child) * 1e3}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = {}      # (workload, name) -> [sum, samples]
        self.ops: dict = {}           # workload -> traced op count
        self.active = False
        self._workload = None
        self._op = None
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ditopo" or name.startswith("ditopo.")]
        for span_name, (mod_name, path) in TARGETS.items():
            owner = importlib.import_module(mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            self._rebind(owner, attr, original, wrapper)
            if not cls_path:
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is original:
                            self._rebind(m, k, original, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self.active = False

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span, time.perf_counter() - t0)
        return wrapper

    # -- spans -------------------------------------------------------------

    def _enter(self, name) -> Span:
        parent = self.stack[-1]
        span = parent.children.get(name)
        if span is None:
            span = Span(len(self.spans), parent.id, self._op, self._workload, name)
            parent.children[name] = span
            self.spans.append(span)
        self.stack.append(span)
        return span

    def _exit(self, span, elapsed):
        self.stack.pop()
        span.calls += 1
        span.total += elapsed
        if self.stack:
            self.stack[-1].child += elapsed

    @contextmanager
    def op(self, workload: str, op_id: int):
        """The root span of one traced op."""
        if not self.active:
            yield
            return
        self._workload, self._op = workload, op_id
        root = Span(len(self.spans), None, op_id, workload, "op")
        self.spans.append(root)
        self.stack.append(root)
        self.ops[workload] = self.ops.get(workload, 0) + 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(root, time.perf_counter() - t0)

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own call into a layer."""
        if not (self.active and self.stack):
            yield
            return
        span = self._enter(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(span, time.perf_counter() - t0)

    @contextmanager
    def paused(self):
        """Run output checks without recording their library calls."""
        saved, self.stack = self.stack, []
        try:
            yield
        finally:
            self.stack = saved

    def count(self, name: str, value: float) -> None:
        if self.active and self.stack:
            entry = self.counters.setdefault((self._workload, name), [0.0, 0])
            entry[0] += value
            entry[1] += 1

    # -- results -----------------------------------------------------------

    def totals(self, workload: str, name: str) -> tuple:
        """(calls, inclusive seconds) over the spans of one workload pass."""
        calls = total = 0
        for s in self.spans:
            if s.workload == workload and s.name == name:
                calls += s.calls
                total += s.total
        return calls, total

    def counter(self, workload: str, name: str) -> tuple:
        return tuple(self.counters.get((workload, name), (0.0, 0)))

    def write(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [s.to_json() for s in self.spans]
        doc["counters"] = [{"workload": w, "name": n, "sum": v[0], "samples": v[1]}
                           for (w, n), v in sorted(self.counters.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

