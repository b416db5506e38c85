"""Directed motion planning toolkit.

Reachability oracles, patchwork planners, and directed topological
complexity for directed graphs, products and tori, two-process PV
programs, and directed sphere boundaries, plus natural homology over
finite trace diagrams.

``import ditopo`` loads no submodule.  Each name in ``__all__`` is looked
up in its defining submodule on first use (``ditopo.gamma`` imports
``ditopo.graph`` and what that imports), so a program loads only the
modules it uses; the ``ditopo`` CLI likewise imports a subcommand's
modules only when that subcommand runs.
"""

from importlib import import_module

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DiPath", "DiTCReport", "EdgeInterior", "GraphPoint", "Patch", "Patchwork",
        "Reason", "Step", "Vertex", "check_patch_continuity", "check_section",
        "concatenate", "contraction_homotopy", "format_point", "parse_point",
        "points_equal", "sup_distance"), "core"),
    **dict.fromkeys((
        "CellPlanner", "DirectedGraph", "Edge", "GammaOracle", "TraceClassSummary", "betti1",
        "build_planner", "circle_planner", "classical_tc_graph", "cycle_graph",
        "directed_circle", "directed_interval", "directed_loop", "ditc", "gamma",
        "interval_planner", "is_strongly_connected_dspace", "loop_planner",
        "parallel_edges", "subdivide", "three_patch_planner", "traces_between"), "graph"),
    **dict.fromkeys((
        "NatDiagram", "check_bisimulation", "factorization_diagram", "h_n",
        "is_bisimilar_to_point", "terminal_diagram"), "nathom"),
    **dict.fromkeys(("product_gamma", "product_planner", "torus_planner"), "product"),
    **dict.fromkeys(("forbidden_regions", "parse_pv", "pv_gamma", "schedule"), "pv"),
    **dict.fromkeys(("sphere_ditc", "sphere_gamma", "sphere_planner_1"), "sphere"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
