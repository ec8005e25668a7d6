"""Exhaustive backtracking search for proper list edge-colorings.

Ground truth for desk-scale instances; deliberately independent of the
engine (no shared bookkeeping, no chains).  Edges are tried in id order
and colors in ascending order, pruning on endpoint clashes.
"""

from __future__ import annotations

from typing import Optional

from .errors import TooLargeError
from .graph import Multigraph
from .lists import ListAssignment

DEFAULT_LIMIT = 10


def exhaustive_color(
    g: Multigraph, lists: ListAssignment, limit: int = DEFAULT_LIMIT
) -> Optional[list[int]]:
    """Some proper list edge-coloring if one exists, else None."""
    if g.m > limit:
        raise TooLargeError(g.m, limit)
    order = [sorted(lists.lists[e]) for e in range(g.m)]
    colors: list[Optional[int]] = [None] * g.m
    used = [set() for _ in range(g.n)]
    # Depth-first search without recursion, so the depth is not capped by
    # the interpreter's stack: edges 0..e-1 are colored, and tried[e] is
    # how many of edge e's candidate colors have been used up.
    tried = [0] * g.m
    e = 0
    while 0 <= e < g.m:
        u, v = g.endpoints[e]
        c = colors[e]
        if c is not None:  # every later edge failed under c: take it off
            colors[e] = None
            used[u].remove(c)
            used[v].remove(c)
        cands = order[e]
        i = tried[e]
        while i < len(cands) and (cands[i] in used[u] or cands[i] in used[v]):
            i += 1
        if i == len(cands):
            tried[e] = 0
            e -= 1
            continue
        c = cands[i]
        tried[e] = i + 1
        colors[e] = c
        used[u].add(c)
        used[v].add(c)
        e += 1
    return colors if e == g.m else None
