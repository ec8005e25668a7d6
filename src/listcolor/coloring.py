"""Partial list edge-colorings with maintained used/available sets.

The structure keeps, per vertex, a map from used color to the edge
carrying it and the set of still-available common colors, plus two running
totals: the sum of available-set sizes and the degree-weighted count of
uncolored incidences.  The pair of totals is the lexicographic potential
that certifies progress of the augmenting engine, so both are maintained
in O(1) per color change and re-derivable from scratch by ``verify``.
The number of blank edges is kept too: a chain shift never changes it, so
only ``assign`` and ``unassign`` move it.  Which blank edge to repair next
is the engine's choice alone.

One actor mutates a coloring at a time.  Each state has its own ``stamp``,
so committing a chain shift checked on another state is refused in O(1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (
    COLOR_CLASH,
    COLOR_NOT_IN_LIST,
    START_NOT_BLANK,
    ColorNotInListError,
    EdgeBlankError,
    EdgeNotBlankError,
    ImproperAssignmentError,
    NotShiftableError,
    PreconditionViolatedError,
)
from .graph import Multigraph
from .lists import ListAssignment

_STAMPS = itertools.count()  # process-wide: no two coloring states share a stamp


class Potential(NamedTuple):
    """(sum of available-set sizes, degree-weighted uncolored incidences).

    Tuples compare lexicographically, which is exactly the order the
    termination argument uses.
    """

    a: int
    d: int


class Shift(NamedTuple):
    """A chain shift checked by ``PartialColoring.check_shift``.

    ``old`` and ``targets`` are the chain's colors before and after (None
    for blank), ``changes`` the (vertex, color) -> edge entries of the
    shifted coloring that differ from the current one (None where the
    color leaves the vertex), ``delta`` the exact potential change, and
    ``stamp`` the coloring's stamp at the check: a shift is valid only
    until that coloring next changes, and never on any other coloring.
    """

    edges: tuple
    old: tuple
    targets: tuple
    changes: dict
    delta: Potential
    stamp: int


@dataclass(frozen=True, slots=True)
class Finding:
    kind: str  # "ImproperAssignment" | "ColorNotInList" | "CacheMismatch"
    detail: str


class PartialColoring:
    __slots__ = (
        "g",
        "lists",
        "color",
        "used_edge",
        "available",
        "blanks",
        "weight",
        "a_total",
        "d_total",
        "stamp",
    )

    ops = 0  # a constant; only bench/tracer.py reads it

    def __init__(self, g: Multigraph, lists: ListAssignment):
        self.g = g
        self.lists = lists
        self.color: list[Optional[int]] = [None] * g.m
        self.used_edge: list[dict[int, int]] = [{} for _ in range(g.n)]
        self.available: list[set[int]] = [set(lists.common[x]) for x in range(g.n)]
        self.blanks = g.m
        # deg(u) + deg(v) per edge: what coloring or blanking it moves d_total by
        inc = g.incidence
        self.weight = tuple(len(inc[u]) + len(inc[v]) for u, v in g.endpoints)
        self.a_total = sum(len(s) for s in self.available)
        self.d_total = sum(self.weight)
        self.stamp = next(_STAMPS)

    def potential(self) -> Potential:
        return Potential(self.a_total, self.d_total)

    # -- single-edge updates ------------------------------------------------

    def assign(self, e: int, c: int) -> None:
        if self.color[e] is not None:
            raise EdgeNotBlankError(f"edge {e} already colored")
        if c not in self.lists.lists[e]:
            raise ColorNotInListError(f"color {c} not in list of edge {e}")
        u, v = self.g.endpoints[e]
        if c in self.used_edge[u] or c in self.used_edge[v]:
            raise ImproperAssignmentError(f"color {c} already used at an end of edge {e}")
        self.color[e] = c
        for w in (u, v):
            self.used_edge[w][c] = e
            avail = self.available[w]
            if c in avail:
                avail.remove(c)
                self.a_total -= 1
        self.blanks -= 1
        self.d_total -= self.weight[e]
        self.stamp = next(_STAMPS)

    def unassign(self, e: int) -> None:
        c = self.color[e]
        if c is None:
            raise EdgeBlankError(f"edge {e} already blank")
        self.color[e] = None
        u, v = self.g.endpoints[e]
        for w in (u, v):
            del self.used_edge[w][c]
            if c in self.lists.common[w]:
                self.available[w].add(c)
                self.a_total += 1
        self.blanks += 1
        self.d_total += self.weight[e]
        self.stamp = next(_STAMPS)

    def is_happy(self, e: int) -> Optional[int]:
        """Smallest color legally extendable onto blank edge e, or None."""
        if self.color[e] is not None:
            raise EdgeNotBlankError(f"edge {e} is not blank")
        u, v = self.g.endpoints[e]
        best = None
        for c in self.available[u]:
            if c not in self.used_edge[v] and (best is None or c < best):
                best = c
        for c in self.available[v]:
            if c not in self.used_edge[u] and (best is None or c < best):
                best = c
        return best

    # -- chain shifts ---------------------------------------------------------

    def shift_violation(self, edges, targets, changes: dict):
        """(index, reason, None) for the first edge making the shift improper,
        else (None, None, da) with da the availability total's change.

        ``targets[i]`` is the color edge ``edges[i]`` would receive (None for
        blank).  Fills ``changes`` with every entry of the shifted coloring
        that differs from this one: (vertex, color) -> the edge carrying the
        color there afterwards, or None where the color leaves the vertex.
        The same walk counts da: a freed color +1 where it is common, a taken
        one -1 where it was available; freed then retaken cancels out.
        Does not mutate the coloring.
        """
        ends, used, lists = self.g.endpoints, self.used_edge, self.lists.lists
        common, color = self.lists.common, self.color
        da = 0
        for e in edges:
            c = color[e]
            if c is not None:
                u, v = ends[e]
                changes[u, c] = changes[v, c] = None
                da += (c in common[u]) + (c in common[v])
        for i, (e, c) in enumerate(zip(edges, targets)):
            if c is None:
                continue
            if c not in lists[e]:
                return i, COLOR_NOT_IN_LIST, None
            for w in ends[e]:
                key = (w, c)
                f = changes.get(key, -1)  # -1: no chain edge has c at w
                if f is not None and (f != -1 or c in used[w]):
                    return i, COLOR_CLASH, None  # a chain edge or one outside has c
                changes[key] = e
                da -= c in common[w]  # c was available, or freed above, iff common
        return None, None, da

    def check_shift(self, edges) -> Shift:
        """Check the shift of a chain once and compute what it would change.

        Does not mutate.  Raises PreconditionViolatedError if the chain is
        empty or repeats an edge, and NotShiftableError if the start edge is
        colored or the shifted coloring would be improper or escape a list.
        ``shift_violation`` counts a's change in its walk; d moves by the
        weight of each edge that gets colored or goes blank.  The shift is
        valid only until the coloring's stamp next changes.
        """
        if not edges or len(set(edges)) != len(edges):
            raise PreconditionViolatedError(f"chain {tuple(edges)} empty or repeats an edge")
        old = tuple(map(self.color.__getitem__, edges))
        if old[0] is not None:
            raise NotShiftableError(0, START_NOT_BLANK)
        targets = old[1:] + (None,)
        changes = {}
        i, reason, da = self.shift_violation(edges, targets, changes)
        if i is not None:
            raise NotShiftableError(i, reason)
        weight = self.weight
        dd = weight[edges[-1]] - weight[edges[0]]
        if old.count(None) > 1:  # each later blank edge i passes its blank to i - 1
            for i in range(1, len(edges)):
                if old[i] is None:
                    dd += weight[edges[i - 1]] - weight[edges[i]]
        return Shift(tuple(edges), old, targets, changes, Potential(da, dd), self.stamp)

    def apply_chain_shift(self, shift: Shift) -> tuple:
        """Commit a checked shift: each chain edge takes the next one's color.

        Writes ``shift.changes`` in place without checking it again.  A
        vertex keeps a color while some chain edge at it still carries it,
        so availability moves only where a color appears or leaves (a
        path's two ends, a fan's leaves) and the totals move by
        ``shift.delta``.  The blank count stays: the start edge is blank and
        the targets hold exactly as many blanks as the old colors.  Returns
        the tuple of previous colors and renews the stamp.  Raises
        PreconditionViolatedError, with the state unchanged, if the shift was
        checked at another stamp: on another coloring, or on this one before
        its last color change.
        """
        if shift.stamp != self.stamp:
            raise PreconditionViolatedError("stale shift: the coloring changed since")
        color, used, available = self.color, self.used_edge, self.available
        common = self.lists.common
        for (w, c), e in shift.changes.items():
            if e is None:
                del used[w][c]
                if c in common[w]:
                    available[w].add(c)
            else:
                if c in available[w]:
                    available[w].remove(c)
                used[w][c] = e
        self.a_total += shift.delta.a
        self.d_total += shift.delta.d
        for e, now in zip(shift.edges, shift.targets):
            color[e] = now
        self.stamp = next(_STAMPS)
        return shift.old

    def undo_chain_shift(self, edges, old: tuple) -> None:
        for e in edges:
            if self.color[e] is not None:
                self.unassign(e)
        for e, c in zip(edges, old):
            if c is not None:
                self.assign(e, c)

    # -- verification ---------------------------------------------------------

    def verify(self) -> list[Finding]:
        """Recompute everything from the assignment alone; report mismatches.

        One walk over the colors rebuilds used, the blank count and d (deg(u) +
        deg(v) per blank edge), one over the vertices each available set and
        a; the caches are read only to be compared against."""
        g, common = self.g, self.lists.common
        findings = check_edge_colors(g, self.lists, self.color)
        inc = g.incidence
        used = [dict() for _ in range(g.n)]
        blanks = d = 0
        for e, (c, (u, v)) in enumerate(zip(self.color, g.endpoints)):
            if c is None:
                blanks += 1
                d += len(inc[u]) + len(inc[v])
            else:  # the first edge keeps c, as in check_edge_colors
                used[u].setdefault(c, e)
                used[v].setdefault(c, e)
        a = 0
        for x in range(g.n):
            if used[x] != self.used_edge[x]:
                findings.append(Finding("CacheMismatch", f"used set at vertex {x}"))
            avail = common[x] - used[x].keys()
            a += len(avail)
            if avail != self.available[x]:
                findings.append(Finding("CacheMismatch", f"available set at vertex {x}"))
        if blanks != self.blanks:
            findings.append(Finding("CacheMismatch", "blank edge count"))
        if (a, d) != (self.a_total, self.d_total):
            findings.append(
                Finding(
                    "CacheMismatch",
                    f"potential totals cached ({self.a_total}, {self.d_total})"
                    f" recomputed ({a}, {d})",
                )
            )
        return findings


def check_edge_colors(g: Multigraph, lists, colors) -> list[Finding]:
    """Validate a plain color vector (None = blank) without building caches.

    ``lists`` may be None to skip list-membership checks.  Used by the CLI
    verifier, the oracle tests and ``PartialColoring.verify``, so it shares
    no code with the engine's incremental bookkeeping.
    """
    findings = []
    used: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for e, c in enumerate(colors):
        if c is None:
            continue
        if lists is not None and c not in lists.lists[e]:
            findings.append(
                Finding("ColorNotInList", f"edge {e} colored {c} outside its list")
            )
        for w in g.endpoints[e]:
            if c in used[w]:
                findings.append(
                    Finding(
                        "ImproperAssignment",
                        f"color {c} on edges {used[w][c]} and {e} at vertex {w}",
                    )
                )
            else:
                used[w][c] = e
    return findings
