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

from dataclasses import dataclass

from .errors import BoundViolationError, NotBipartiteError
from .graph import Multigraph

MODES = ("shannon", "vizing", "koenig", "explicit")
BOUND_MODES = ("shannon", "vizing", "koenig")


def local_bound(g: Multigraph, x: int, mode: str) -> int:
    """The mode's required common-color count at vertex x."""
    d = g.degree(x)
    if mode == "shannon":
        return d + d // 2
    if mode == "vizing":
        return d + g.mu_vertex(x)
    if mode == "koenig":
        return d
    raise ValueError(f"mode must be one of {BOUND_MODES}, got {mode!r}")


def _check_mode(g: Multigraph, mode: str) -> None:
    """Raise unless ``mode`` names a guarantee that can hold on g."""
    if mode not in BOUND_MODES:
        raise ValueError(f"mode must be one of {BOUND_MODES}, got {mode!r}")
    if mode == "koenig" and g.bipartition() is None:
        raise NotBipartiteError("koenig bound requires a bipartite graph")


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

    def max_common(self) -> int:
        return max((len(s) for s in self.common), default=0)


@dataclass(frozen=True, slots=True)
class VertexBound:
    vertex: int
    required: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.actual >= self.required


@dataclass(frozen=True, slots=True)
class BoundReport:
    mode: str
    entries: tuple[VertexBound, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.entries)

    def failures(self) -> list[VertexBound]:
        return [v for v in self.entries if not v.ok]


def check_bound(g: Multigraph, L: ListAssignment, mode: str) -> BoundReport:
    """Per-vertex report of whether the common sets meet the mode's bound."""
    _check_mode(g, mode)
    entries = tuple(
        VertexBound(x, local_bound(g, x, mode), len(L.common[x]))
        for x in range(g.n)
    )
    return BoundReport(mode, entries)


def generate_from_bounds(g: Multigraph, mode: str) -> ListAssignment:
    """Lists {1..max(bound(u), bound(v))} per edge; always passes check_bound.

    Edges with the same list length share one frozenset.
    """
    _check_mode(g, mode)
    bounds = [local_bound(g, x, mode) for x in range(g.n)]
    by_length = {}
    lists = []
    for u, v in g.endpoints:
        b = max(bounds[u], bounds[v])
        s = by_length.get(b)
        if s is None:
            s = by_length[b] = frozenset(range(1, b + 1))
        lists.append(s)
    return ListAssignment(g, lists)


def truncate(g: Multigraph, L: ListAssignment, c, ell: int) -> ListAssignment:
    """Shrink lists so every common set is finite-small yet still large enough.

    Given per-vertex requirements ``c(x) <= ell`` with ``|common(x)| >= c(x)``,
    keep the ``min(|common(x)|, ell)`` smallest common colors per vertex and
    re-assemble each edge's list as the union of its endpoints' kept sets.
    The result L' satisfies L'(e) subset of L(e) and
    c(x) <= |common'(x)| <= 2*ell.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    for x in range(g.n):
        if c[x] > ell:
            raise BoundViolationError(x, c[x], ell)
        if len(L.common[x]) < c[x]:
            raise BoundViolationError(x, c[x], len(L.common[x]))
    kept = [frozenset(sorted(L.common[x])[:ell]) for x in range(g.n)]
    lists = [kept[u] | kept[v] for u, v in g.endpoints]
    return ListAssignment(g, lists)
