"""Proper list edge-coloring of loopless multigraphs under local guarantees.

Given per-edge color lists whose per-vertex common sets are large enough
locally (floor(3 deg / 2), deg + mu, or deg on bipartite graphs), the
engine constructs a proper coloring drawing every edge's color from its
list, by shifting colors along fans and alternating paths.  Progress is
certified at run time by a lexicographic potential, and an exhaustive
oracle provides ground truth at desk scale.
"""

from .bipartite import koenig_path
from .chain import Chain, alternating_path, max_shiftable_prefix, resolve_path
from .coloring import PartialColoring, check_edge_colors
from .engine import RunStats, TraceRecord, augment_once, color_graph, step_budget
from .graph import Multigraph
from .io import (
    generate_random,
    parse_coloring,
    parse_instance,
    write_coloring,
    write_instance,
)
from .lists import ListAssignment, check_bound, generate_from_bounds, local_bound
from .oracle import exhaustive_color
from .shannon import classify_shannon, shannon_fan
from .vizing import classify_vizing, vizing_fan

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "Multigraph",
    "ListAssignment",
    "PartialColoring",
    "RunStats",
    "TraceRecord",
    "alternating_path",
    "augment_once",
    "check_bound",
    "check_edge_colors",
    "classify_shannon",
    "classify_vizing",
    "color_graph",
    "exhaustive_color",
    "generate_from_bounds",
    "generate_random",
    "koenig_path",
    "local_bound",
    "max_shiftable_prefix",
    "parse_coloring",
    "parse_instance",
    "resolve_path",
    "shannon_fan",
    "step_budget",
    "vizing_fan",
    "write_coloring",
    "write_instance",
]
