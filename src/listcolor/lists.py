"""Per-edge color lists and the per-vertex common-color sets they induce.

For a vertex x, the common set is the intersection of the lists of all
edges incident to x (empty for isolated vertices: every local bound is 0
at degree 0, so this convention never blocks a coloring).  The three bound
modes require, per vertex:

* ``shannon``: floor(3 deg(x) / 2) common colors,
* ``vizing``:  deg(x) + mu(x) common colors,
* ``koenig``:  deg(x) common colors, on a bipartite graph.

``explicit`` means the caller supplies the lists and states separately
which of the three guarantees they satisfy.
"""

from __future__ import annotations

from .errors import BoundViolationError, NotBipartiteError
from .graph import Multigraph

MODES = ("shannon", "vizing", "koenig", "explicit")
# guarantee -> its bound at a vertex of degree d and multiplicity mu
_RULES = {
    "shannon": lambda d, mu: d + d // 2,
    "vizing": lambda d, mu: d + mu,
    "koenig": lambda d, mu: d,
}
BOUND_MODES = tuple(_RULES)


def _check_mode(g: Multigraph, mode: str) -> None:
    """Raise unless ``mode`` names a guarantee that can hold on g."""
    if mode not in BOUND_MODES:  # not _RULES: an unhashable mode gets this ValueError too
        raise ValueError(f"mode must be one of {BOUND_MODES}, got {mode!r}")
    if mode == "koenig" and g.bipartition() is None:
        raise NotBipartiteError("koenig bound requires a bipartite graph")


def _bounds(g: Multigraph, mode: str) -> list[int]:
    """The mode's required common-color count at every vertex, in one pass
    over g's incidence and multiplicities."""
    rule = _RULES[mode]
    return [rule(len(es), mu) for es, mu in zip(g.incidence, g._mu_vertex)]


class ListAssignment:
    """Immutable per-edge color sets plus cached per-vertex common sets."""

    __slots__ = ("lists", "common")

    def __init__(self, g: Multigraph, lists):
        lists = [frozenset(s) for s in lists]
        if len(lists) != g.m:
            raise ValueError(f"expected {g.m} lists, got {len(lists)}")
        checked = set()  # ids of list objects already validated
        for e, s in enumerate(lists):
            if id(s) in checked:
                continue
            checked.add(id(s))
            for c in s:
                if type(c) is not int or c < 1:  # bool is an int subclass
                    raise ValueError(f"edge {e}: colors must be integers >= 1")
        common = []
        for x in range(g.n):
            inc = g.incidence[x]
            if not inc:
                common.append(frozenset())
                continue
            # edges sharing one list object intersect it once
            distinct = {id(lists[e]): lists[e] for e in inc}.values()
            common.append(frozenset.intersection(*distinct))
        self.lists = tuple(lists)
        self.common = tuple(common)


def check_sizes(g: Multigraph, L: ListAssignment) -> None:
    """Raise ValueError if L was built for a graph with another vertex or
    edge count than g."""
    if (len(L.common), len(L.lists)) != (g.n, g.m):
        raise ValueError(
            f"lists are for {len(L.common)} vertices and {len(L.lists)} edges,"
            f" the graph has {g.n} and {g.m}"
        )


def check_bound(g: Multigraph, L: ListAssignment, mode: str) -> None:
    """Raise BoundViolationError at the lowest-index vertex whose common set
    is smaller than the mode's bound; return None if every vertex meets it.
    Raise ValueError if L was built for a graph with another vertex or edge
    count."""
    _check_mode(g, mode)
    check_sizes(g, L)
    for x, (required, common) in enumerate(zip(_bounds(g, mode), L.common)):
        if len(common) < required:
            raise BoundViolationError(x, required, len(common))


def generate_from_bounds(g: Multigraph, mode: str) -> ListAssignment:
    """Lists {1..max(bound(u), bound(v))} per edge; always passes check_bound.

    Edges with the same list length share one frozenset.
    """
    _check_mode(g, mode)
    bounds = _bounds(g, mode)
    by_length = {}
    lists = []
    for u, v in g.endpoints:
        b = max(bounds[u], bounds[v])
        s = by_length.get(b)
        if s is None:
            s = by_length[b] = frozenset(range(1, b + 1))
        lists.append(s)
    return ListAssignment(g, lists)
