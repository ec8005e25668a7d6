"""Proper list edge-coloring of loopless multigraphs under local guarantees.

Given per-edge color lists whose per-vertex common sets are large enough
locally (floor(3 deg / 2), deg + mu, or deg on bipartite graphs), the
engine constructs a proper coloring drawing every edge's color from its
list, by shifting colors along fans and alternating paths.  Progress is
certified at run time by a lexicographic potential, and an exhaustive
oracle provides ground truth at desk scale.
"""

from .coloring import PartialColoring, check_edge_colors
from .engine import RunStats, TraceRecord, color_graph, step_budget
from .graph import Multigraph
from .io import (
    generate_random,
    parse_coloring,
    parse_instance,
    write_coloring,
    write_instance,
)
from .lists import ListAssignment, check_bound, generate_from_bounds
from .oracle import exhaustive_color

__version__ = "0.1.0"

__all__ = [
    "Multigraph",
    "ListAssignment",
    "PartialColoring",
    "RunStats",
    "TraceRecord",
    "check_bound",
    "check_edge_colors",
    "color_graph",
    "exhaustive_color",
    "generate_from_bounds",
    "generate_random",
    "parse_coloring",
    "parse_instance",
    "step_budget",
    "write_coloring",
    "write_instance",
]
