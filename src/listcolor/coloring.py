"""Partial list edge-colorings with maintained used maps and color masks.

The structure keeps, per vertex, a map from used color to the edge
carrying it, plus two running totals: the sum of availability sizes and
the degree-weighted count of uncolored incidences.  The pair of totals is
the lexicographic potential that certifies progress of the augmenting
engine, so both are maintained in O(1) per color change and re-derivable
from scratch by ``verify``.  The number of blank edges is kept too: a
chain shift never changes it, so only ``assign`` and ``unassign`` move
it.  Which blank edge to repair next is the engine's choice alone.

One method, ``_commit``, writes the used maps, the used masks, the totals
and the stamp.  ``assign``, ``unassign`` and ``apply_chain_shift`` check
their change first, then pass ``_commit`` its changed (vertex, color)
entries and its exact deltas of the totals.

Color sets are int bitmasks over the ranks of a sorted palette:
``rank[x][c]`` is c's rank in vertex x's palette ``palette[x]``, and c's
bit there is ``1 << rank``.  ``common_mask[x]`` holds the bits of x's
common set and ``used_mask[x]`` those of the colors used at x that have
one, so the availability at x is ``common_mask[x] & ~used_mask[x]`` and
its smallest color is its lowest bit, read back by ``smallest``.  Ranks,
not raw colors, keep a mask as wide as its palette whatever the color
values.

Normally every vertex shares one palette, the sorted union of the common
sets (a color in none is never available anywhere, so it has no rank),
and a question about two vertices is one AND.  But a vertex's shared mask
is as wide as the rank of its largest common color, so mask operations
and memory grow with the palette, not with the common set.  When the
shared masks would average more than ``WIDE`` bits, each vertex ranks
only its own common set instead (vertices with equal common sets share
one), and a question about two vertices with different palettes walks
one mask's bits in order.  Both layouts give the same answers.  ``WIDE``
sits among the widths where the two layouts took equal time on explicit
vizing-bound lists drawn from 1..S: near 2000 bits at n=2000 with
Delta=32, between 3000 and 4900 with Delta=64, and between 4300 and 8500
at n=20000 with Delta=8.

One actor mutates a coloring at a time.  Each state has its own ``stamp``,
so a chain shift checked on another state is refused in O(1).
"""

from __future__ import annotations

import bisect
import itertools
from typing import NamedTuple, Optional

from .errors import (
    COLOR_CLASH,
    COLOR_NOT_IN_LIST,
    START_NOT_BLANK,
    NotShiftableError,
    PreconditionViolatedError,
)
from .graph import Multigraph
from .lists import _INT, ListAssignment, check_sizes

_STAMPS = itertools.count()  # process-wide: no two coloring states share a stamp
# The most bits a mask over the shared palette may take on average before
# each vertex gets its own palette: the measured crossover of the layouts.
WIDE = 4096


def _ranked(palette: list) -> tuple[list, dict]:
    """A sorted palette and each color's rank in it."""
    return palette, dict(zip(palette, itertools.count()))


def _palettes(common) -> tuple[list, list, list]:
    """Each vertex's palette, rank map and common mask, from the common sets.

    The shared palette is the sorted union of the common sets; a vertex's
    mask over it is as wide as the rank of its largest common color plus
    one.  If those widths average more than WIDE bits over the vertices
    with a common color, each vertex ranks its own common set instead, and
    vertices with equal common sets share one palette.
    """
    n = len(common)
    distinct = set(common)  # equal common sets are ranked once
    union = sorted(set().union(*distinct))
    if len(union) > WIDE:  # else no mask can be wider than WIDE bits
        top = {s: bisect.bisect_right(union, max(s)) for s in distinct if s}
        nonempty = [s for s in common if s]
        if sum(map(top.__getitem__, nonempty)) > WIDE * len(nonempty):
            own = {s: _ranked(sorted(s)) for s in distinct}
            return ([own[s][0] for s in common], [own[s][1] for s in common],
                    [(1 << len(s)) - 1 for s in common])  # all of its own ranks
    palette, rank = _ranked(union)
    shift = (1).__lshift__
    masks = {s: sum(map(shift, map(rank.__getitem__, s))) for s in distinct}
    return [palette] * n, [rank] * n, list(map(masks.__getitem__, common))


def check_edge(e, m: int) -> None:
    """Refuse an edge id that is not an int, a bool included, or lies
    outside 0..m-1, with PreconditionViolatedError."""
    if type(e) is not int:  # a bool would index as 0 or 1
        raise PreconditionViolatedError(f"edge {e!r} is not an int")
    if not 0 <= e < m:  # a negative id would index from the end
        raise PreconditionViolatedError(f"edge {e} out of range [0, {m})")


def _not_a_chain(edges) -> PreconditionViolatedError:
    return PreconditionViolatedError(
        f"chain {tuple(edges)} is empty, repeats an edge or has a blank edge after its start"
    )


class Shift(NamedTuple):
    """A chain shift checked by ``PartialColoring.check_shift``.

    ``changes`` holds the (vertex, color) -> edge entries of the shifted
    coloring that differ from the current one (None where the color leaves
    the vertex), ``delta`` the exact potential change (da, dd), and
    ``stamp`` the coloring's stamp at the check: a shift is valid only
    until that coloring next changes, and never on any other coloring, so
    shifting reads the live colors: each chain edge takes the next one's.
    """

    edges: tuple
    changes: dict
    delta: tuple[int, int]
    stamp: int


class PartialColoring:
    __slots__ = (
        "g",
        "lists",
        "color",
        "used_edge",
        "palette",
        "rank",
        "common_mask",
        "used_mask",
        "blanks",
        "weight",
        "a_total",
        "d_total",
        "stamp",
    )

    ops = 0  # a constant; only bench/tracer.py reads it

    def __init__(self, g: Multigraph, lists: ListAssignment):
        check_sizes(g, lists)
        self.g = g
        self.lists = lists
        self.color: list[Optional[int]] = [None] * g.m
        self.used_edge: list[dict[int, int]] = [{} for _ in range(g.n)]
        common = lists.common
        self.palette, self.rank, self.common_mask = _palettes(common)
        self.used_mask = [0] * g.n
        self.blanks = g.m
        # deg(u) + deg(v) per edge: what coloring or blanking it moves d_total by
        inc = g.incidence
        self.weight = tuple(len(inc[u]) + len(inc[v]) for u, v in g.endpoints)
        self.a_total = sum(map(len, common))
        self.d_total = sum(self.weight)
        self.stamp = next(_STAMPS)

    def potential(self) -> tuple[int, int]:
        """(a, d): the sum of availability sizes and the degree-weighted
        count of uncolored incidences.  Tuples compare lexicographically,
        which is exactly the order the termination argument uses."""
        return self.a_total, self.d_total

    def available_mask(self, x: int) -> int:
        """The bits of the colors available at vertex x."""
        return self.common_mask[x] & ~self.used_mask[x]

    def smallest(self, x: int, mask: int) -> Optional[int]:
        """The color of the lowest bit of a mask in x's palette, or None
        for an empty mask."""
        if not mask:
            return None
        return self.palette[x][(mask & -mask).bit_length() - 1]

    def smallest_unused(self, x: int, y: int) -> Optional[int]:
        """The smallest color available at x and not used at y, or None."""
        mask = self.common_mask[x] & ~self.used_mask[x]
        if self.rank[x] is self.rank[y]:
            return self.smallest(x, mask & ~self.used_mask[y])
        palette, used = self.palette[x], self.used_edge[y]
        while mask:
            low = mask & -mask
            c = palette[low.bit_length() - 1]
            if c not in used:
                return c
            mask ^= low
        return None

    def smallest_shared(self, y: int, z: int) -> Optional[int]:
        """The smallest color available at both y and z, or None."""
        ay, az = self.available_mask(y), self.available_mask(z)
        if self.rank[y] is self.rank[z]:
            return self.smallest(y, ay & az)
        palette, rank = self.palette[y], self.rank[z]
        while ay:
            low = ay & -ay
            c = palette[low.bit_length() - 1]
            r = rank.get(c)
            if r is not None and az >> r & 1:
                return c
            ay ^= low
        return None

    # -- single-edge updates ------------------------------------------------

    def assign(self, e: int, c: int) -> None:
        check_edge(e, self.g.m)
        if self.color[e] is not None:
            raise PreconditionViolatedError(f"edge {e} already colored")
        if type(c) is not int:  # True or 2.0 would match a listed 1 or 2
            raise PreconditionViolatedError(f"color {c!r} is not an int")
        if c not in self.lists.lists[e]:
            raise PreconditionViolatedError(f"color {c} not in list of edge {e}")
        u, v = self.g.endpoints[e]
        if c in self.used_edge[u] or c in self.used_edge[v]:
            raise PreconditionViolatedError(f"color {c} already used at an end of edge {e}")
        self.color[e] = c
        common = self.lists.common  # c was unused at both ends: available iff common
        self._commit({(u, c): e, (v, c): e}, -(c in common[u]) - (c in common[v]),
                     -self.weight[e], -1)

    def unassign(self, e: int) -> None:
        check_edge(e, self.g.m)
        c = self.color[e]
        if c is None:
            raise PreconditionViolatedError(f"edge {e} already blank")
        self.color[e] = None
        u, v = self.g.endpoints[e]
        common = self.lists.common
        self._commit({(u, c): None, (v, c): None}, (c in common[u]) + (c in common[v]),
                     self.weight[e], 1)

    def is_happy(self, e: int) -> Optional[int]:
        """Smallest color legally extendable onto blank edge e, or None; unlike
        ``assign``, it takes e's type and range as checked by the engine."""
        if self.color[e] is not None:
            raise PreconditionViolatedError(f"edge {e} is not blank")
        u, v = self.g.endpoints[e]
        if self.rank[u] is self.rank[v]:
            cm, um = self.common_mask, self.used_mask
            return self.smallest(u, (cm[u] | cm[v]) & ~(um[u] | um[v]))
        a, b = self.smallest_unused(u, v), self.smallest_unused(v, u)
        return a if b is None or (a is not None and a < b) else b

    # -- chain shifts ---------------------------------------------------------

    def shift_violation(self, edges) -> tuple[dict, int]:
        """``(changes, da)`` for the shift of a non-empty chain, or its refusal.

        Edge i would receive the color of edge i + 1, and the last edge goes
        blank.  ``changes`` holds every entry of the shifted coloring that
        differs from this one: (vertex, color) -> the edge carrying the color
        there afterwards, or None where the color leaves the vertex.  The
        same walk counts da, the availability total's change: a freed color
        +1 where it is common, a taken one -1 where it was available; freed
        then retaken cancels out.  Does not mutate the coloring.

        Raises, in this order:
        1. PreconditionViolatedError if an edge after the start is blank or
           the chain repeats an edge, found by the walk that frees the
           colors of ``edges[1:]``;
        2. NotShiftableError(0, START_NOT_BLANK) if the start edge is colored;
        3. NotShiftableError(i, reason) for the first edge i that would
           escape its list (COLOR_NOT_IN_LIST) or clash (COLOR_CLASH), found
           by the walk that takes the colors.
        """
        ends, used, lists = self.g.endpoints, self.used_edge, self.lists.lists
        common, color = self.lists.common, self.color
        changes, da = {}, 0
        for e in edges[1:]:
            c = color[e]
            if c is None:
                raise _not_a_chain(edges)
            u, v = ends[e]
            changes[u, c] = changes[v, c] = None
            da += (c in common[u]) + (c in common[v])
        # This coloring is proper, so distinct colored edges free distinct
        # (vertex, color) entries, two each: fewer means an edge repeats.
        start = color[edges[0]]
        if len(changes) != 2 * len(edges) - 2 or (
                start is not None and edges[0] in edges[1:]):
            raise _not_a_chain(edges)
        if start is not None:
            raise NotShiftableError(0, START_NOT_BLANK)
        for i, e in enumerate(edges[:-1]):
            c = color[edges[i + 1]]
            if c not in lists[e]:
                raise NotShiftableError(i, COLOR_NOT_IN_LIST)
            for w in ends[e]:
                key = (w, c)
                f = changes.get(key, -1)  # -1: no chain edge has c at w
                if f is not None and (f != -1 or c in used[w]):  # c already at w
                    raise NotShiftableError(i, COLOR_CLASH)
                changes[key] = e
                da -= c in common[w]  # c was available, or freed above, iff common
        return changes, da

    def check_shift(self, edges) -> Shift:
        """Check the shift of a chain once and compute what it would change.

        Does not mutate.  A chain is one blank edge followed by colored
        edges.  An empty chain, or one with an edge id that is not an int
        or lies outside 0..m-1, raises PreconditionViolatedError.  A one-edge
        chain raises NotShiftableError(0, START_NOT_BLANK) if its edge is
        colored, and otherwise moves no color: its shift is empty, with
        delta (0, 0).  A longer chain is checked by one call of
        ``shift_violation``, which raises, in this order,
        PreconditionViolatedError for a repeated edge or a blank edge after
        the start, NotShiftableError(0, START_NOT_BLANK) for a colored start
        edge, and NotShiftableError(i, reason) for the first edge i whose
        shifted color would clash or escape its list.  Its walk counts a's
        change; d moves by the weight of the start edge, which gets colored,
        and of the end edge, which goes blank.  The shift is valid only until
        the coloring's stamp next changes.
        """
        if not _INT.issuperset(map(type, edges)):
            e = next(e for e in edges if type(e) is not int)
            raise PreconditionViolatedError(f"edge {e!r} is not an int")
        if edges and not (0 <= min(edges) and max(edges) < self.g.m):
            e = min(edges) if min(edges) < 0 else max(edges)
            raise PreconditionViolatedError(f"edge {e} out of range [0, {self.g.m})")
        if len(edges) > 1:
            changes, da = self.shift_violation(edges)
            dd = self.weight[edges[-1]] - self.weight[edges[0]]
            return Shift(tuple(edges), changes, (da, dd), self.stamp)
        if not edges:
            raise _not_a_chain(edges)
        if self.color[edges[0]] is not None:
            raise NotShiftableError(0, START_NOT_BLANK)
        return Shift(tuple(edges), {}, (0, 0), self.stamp)

    def apply_chain_shift(self, shift: Shift) -> None:
        """Commit a checked shift: each chain edge takes the next one's color.

        Reads the colors live and commits ``shift.changes`` and
        ``shift.delta`` without checking them again.  A vertex keeps a color
        while some chain edge at it still carries it, so availability moves
        only where a color appears or leaves (a path's two ends, a fan's
        leaves).  The blank count stays: the blank start edge takes a color
        and the end edge goes blank.  Raises PreconditionViolatedError, with
        the state unchanged, if the shift was checked at another stamp: on
        another coloring, or on this one before its last color change.
        """
        if shift.stamp != self.stamp:
            raise PreconditionViolatedError("stale shift: the coloring changed since")
        color, edges = self.color, shift.edges
        for e, f in zip(edges, edges[1:]):  # f is read before it is written
            color[e] = color[f]
        color[edges[-1]] = None
        self._commit(shift.changes, *shift.delta, 0)

    def _commit(self, changes: dict, da: int, dd: int, dblanks: int) -> None:
        """Write one color change, its (vertex, color) -> edge entries (None
        where the color leaves the vertex) and its exact deltas of a, d and
        the blank count; a mask bit flips only where a color comes or leaves.
        After ``__init__``, nothing else writes these caches or the stamp."""
        used, used_mask, rank = self.used_edge, self.used_mask, self.rank
        for (w, c), e in changes.items():
            at = used[w]
            if e is None:
                del at[c]
            elif c in at:  # c stays at w, on another edge
                at[c] = e
                continue
            else:
                at[c] = e
            r = rank[w].get(c)
            if r is not None:  # c left w or came to it
                used_mask[w] ^= 1 << r
        self.a_total += da
        self.d_total += dd
        self.blanks += dblanks
        self.stamp = next(_STAMPS)

    def undo_chain_shift(self, edges, old: tuple) -> None:
        for e in edges:
            if self.color[e] is not None:
                self.unassign(e)
        for e, c in zip(edges, old):
            if c is not None:
                self.assign(e, c)

    # -- verification ---------------------------------------------------------

    def verify(self) -> list[tuple[str, str]]:
        """Recompute everything from the assignment alone; report mismatches
        as ``check_edge_colors`` does, plus ("CacheMismatch", detail) pairs.

        The walk of ``check_edge_colors`` also rebuilds used and lists the
        blank edges, which give the blank count and d (deg(u) + deg(v) per
        blank edge).  The palettes, ranks and common masks are rebuilt from
        the common sets, one walk over the vertices rebuilds each used mask
        over the rebuilt ranks, and a comes from the rebuilt masks; the
        caches are read only to be compared against."""
        g = self.g
        palette, rank, common_mask = _palettes(self.lists.common)
        findings, used, blank = _walk_colors(g, self.lists, self.color)
        inc, ends = g.incidence, g.endpoints
        d = sum(len(inc[u]) + len(inc[v]) for u, v in map(ends.__getitem__, blank))
        a = 0
        last = ok = None  # the ids of the palette objects last compared
        for x in range(g.n):
            if used[x] != self.used_edge[x]:
                findings.append(("CacheMismatch", f"used set at vertex {x}"))
            ranks = rank[x]
            here = id(self.palette[x]), id(self.rank[x]), id(ranks)
            if here != last:  # vertices in a row often share all three
                last = here
                ok = (self.palette[x], self.rank[x]) == (palette[x], ranks)
            if not ok:
                findings.append(("CacheMismatch", f"palette at vertex {x}"))
            um = 0
            for c in used[x]:
                r = ranks.get(c)
                if r is not None:
                    um |= 1 << r
            if common_mask[x] != self.common_mask[x] or um != self.used_mask[x]:
                findings.append(("CacheMismatch", f"color masks at vertex {x}"))
            a += (common_mask[x] & ~um).bit_count()
        if len(blank) != self.blanks:
            findings.append(("CacheMismatch", "blank edge count"))
        cached = self.a_total, self.d_total
        if (a, d) != cached:
            findings.append(("CacheMismatch", f"potential totals cached {cached} recomputed {(a, d)}"))
        return findings


def check_edge_colors(g: Multigraph, lists, colors) -> list[tuple[str, str]]:
    """Validate a plain color vector (None = blank) without building caches.

    Reports (kind, detail) pairs: kind "ColorNotInList" for a color outside
    its edge's list, "ImproperAssignment" for a color twice at a vertex.
    ``lists`` may be None to skip list-membership checks.  Raises
    ValueError if ``colors`` does not hold one entry per edge of g, or holds
    an entry that is neither None nor an int (a bool included).  Its walk is
    ``PartialColoring.verify``'s too, so it shares no code with the engine's
    incremental bookkeeping.
    """
    if len(colors) != g.m:
        raise ValueError(f"expected {g.m} colors, got {len(colors)}")
    for e, c in enumerate(colors):
        if c is not None and type(c) is not int:  # bool is an int subclass
            raise ValueError(f"edge {e}: color {c!r} is not an int")
    return _walk_colors(g, lists, colors)[0]


def _walk_colors(g: Multigraph, lists, colors) -> tuple[list, list, list]:
    """``check_edge_colors``'s findings, each vertex's used map (the first
    edge with a color keeps it) and the blank edges, in one walk."""
    findings, blank = [], []
    used: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for e, c in enumerate(colors):
        if c is None:
            blank.append(e)
            continue
        if lists is not None and c not in lists.lists[e]:
            findings.append(("ColorNotInList", f"edge {e} colored {c} outside its list"))
        for w in g.endpoints[e]:
            if c in used[w]:
                findings.append(("ImproperAssignment",
                                 f"color {c} on edges {used[w][c]} and {e} at vertex {w}"))
            else:
                used[w][c] = e
    return findings, used, blank
