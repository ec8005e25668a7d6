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

Every colour set this package builds and keeps, a parsed or generated list,
a list the caller passes as some other iterable and a common set, is kept
in the smaller of the two hash tables CPython can give it
(``smaller_table``); a frozenset the caller passes is kept as it is.
"""

from __future__ import annotations

import functools

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
_INT = frozenset((int,))  # the type of a color: a bool is refused, not read as 0 or 1
_EMPTY = frozenset()  # the common set of every vertex without edges


@functools.cache
def _table_sizes(count: int) -> tuple[int, int]:
    """``__sizeof__`` of a frozenset of ``count`` colours grown one colour
    at a time, and of one sized once for its count, each built from a dict
    as ``smaller_table`` builds it.  Both depend on the count alone, so the
    interpreter is asked once per count."""
    keys = dict.fromkeys(range(count))
    return frozenset(iter(keys)).__sizeof__(), frozenset(keys).__sizeof__()


def smaller_table(colors) -> frozenset:
    """The frozenset of ``colors`` in the smaller of the two hash tables
    CPython can give it: grown one colour at a time, or sized once for its
    count (grown on a tie).  At 19-31 colours the first takes 128 slots
    where the second takes 64.

    A frozenset no larger than that is returned as it is.  Otherwise only
    the smaller table is built, from a dict of the colours: the dict knows
    the count first and is smaller than a grown set, so no larger set is
    made and freed on the way.
    """
    if type(colors) is frozenset and colors.__sizeof__() <= min(_table_sizes(len(colors))):
        return colors
    keys = dict.fromkeys(colors)
    grown, once = _table_sizes(len(keys))
    return frozenset(keys) if once < grown else frozenset(iter(keys))


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
    """Immutable per-edge color sets plus cached per-vertex common sets.

    A frozenset in ``lists`` is kept as the caller's object, and any other
    iterable is built into the smaller table.  Vertices with equal common
    sets share one frozenset, kept in the smaller table; a vertex whose
    edges all carry one list object costs no intersection, and a vertex
    without edges costs no set of its own: every such vertex holds the same
    empty frozenset.
    """

    __slots__ = ("lists", "common")

    def __init__(self, g: Multigraph, lists):
        lists = [s if type(s) is frozenset else smaller_table(s) for s in lists]
        if len(lists) != g.m:
            raise ValueError(f"expected {g.m} lists, got {len(lists)}")
        checked = set()  # ids of list objects already validated
        for e, s in enumerate(lists):
            if id(s) in checked:
                continue
            checked.add(id(s))
            # type first, so min never compares an int with another type
            if not _INT.issuperset(map(type, s)) or (s and min(s) < 1):
                raise ValueError(f"edge {e}: colors must be integers >= 1")
        common = []
        seen = {_EMPTY: _EMPTY}  # each distinct common set, kept once
        for inc in g.incidence:
            if not inc:
                common.append(_EMPTY)
                continue
            # edges sharing one list object intersect it once, and a vertex
            # that meets one list object takes its value as it is
            first, *rest = {id(lists[e]): lists[e] for e in inc}.values()
            s = first.intersection(*rest) if rest else first
            kept = seen.get(s)
            if kept is None:
                kept = seen[s] = smaller_table(s)
            common.append(kept)
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

    Edges with the same list length share one frozenset, kept in the
    smaller table.
    """
    _check_mode(g, mode)
    bounds = _bounds(g, mode)
    by_length = {}
    lists = []
    for u, v in g.endpoints:
        b = max(bounds[u], bounds[v])
        s = by_length.get(b)
        if s is None:
            s = by_length[b] = smaller_table(range(1, b + 1))
        lists.append(s)
    return ListAssignment(g, lists)
