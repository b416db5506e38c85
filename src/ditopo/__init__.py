"""Directed motion planning toolkit.

Reachability oracles, patchwork planners, and directed topological
complexity for directed graphs, products and tori, two-process PV
programs, and directed sphere boundaries, plus natural homology over
finite trace diagrams.
"""

from .core import (
    DiPath,
    DiTCReport,
    EdgeInterior,
    GraphPoint,
    Patch,
    Patchwork,
    Reason,
    Step,
    Vertex,
    check_patch_continuity,
    check_section,
    concatenate,
    contraction_homotopy,
    format_point,
    parse_point,
    points_equal,
    sup_distance,
)
from .graph import (
    DirectedGraph,
    Edge,
    GammaOracle,
    TraceClassSummary,
    betti1,
    build_planner,
    circle_planner,
    classical_tc_graph,
    cycle_graph,
    directed_circle,
    directed_interval,
    directed_loop,
    ditc,
    gamma,
    interval_planner,
    is_strongly_connected_dspace,
    loop_planner,
    parallel_edges,
    subdivide,
    three_patch_planner,
    traces_between,
)
from .nathom import (
    NatDiagram,
    check_bisimulation,
    factorization_diagram,
    h_n,
    is_bisimilar_to_point,
    terminal_diagram,
)
from .product import product_gamma, product_planner, torus_planner
from .pv import forbidden_regions, parse_pv, pv_gamma, schedule
from .sphere import sphere_ditc, sphere_gamma, sphere_plan_1, sphere_planner_1

__all__ = [name for name in dir() if not name.startswith("_")]
