"""Chains, alternating path chains, and their resolution.

A chain is a sequence of distinct edges in which consecutive edges share
exactly one vertex.  Shifting moves each edge's color one position toward
the front and blanks the last edge; the front edge must be blank.  The fan
and walk functions that make chains keep that shape, and
``PartialColoring.check_shift`` refuses an empty or repeating chain.  One
``Chain`` type serves every shape: it may carry vertices x_0..x_k with
x_{i+1} the far end of edge i, where x_0 is the start vertex of a path or
the pivot of a fan (whose leaves are then x_1..x_k).  A path walks
distinct vertices after the first edge (the start vertex may only
reappear as the final vertex), and two-colored alternating paths are the
repair tool of the whole engine:

``resolve_path`` takes an alternating path whose start edge misses one
path color at each endpoint and whose end vertex differs from its start
vertex, finds the longest prefix whose shift stays proper and inside the
lists, and then either colors the path's last edge (a happy outcome,
one more edge colored) or commits the prefix shift (a content outcome,
strictly smaller potential).  One of the two must apply; anything else
raises an internal assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .coloring import PartialColoring, Shift
from .errors import (
    START_NOT_BLANK,
    EdgeNotBlankError,
    LemmaViolationError,
    NotShiftableError,
    PreconditionViolatedError,
)


@dataclass(frozen=True, slots=True)
class Chain:
    """Edges whose colors a shift moves one place toward the front.

    ``vertices`` is empty for a bare chain; otherwise it is x_0..x_k with
    ``vertices[i + 1]`` the far end of ``edges[i]``.  On a path x_0 is the
    start vertex and edge i joins x_i and x_{i+1}; x_1..x_k are distinct,
    and x_0 may coincide only with a later x_i.  On a fan x_0 is the pivot
    shared by every edge, so the leaves are ``vertices[1:]``.
    """

    edges: tuple[int, ...]
    vertices: tuple[int, ...] = ()

    @property
    def start(self) -> int:
        return self.edges[0]

    @property
    def end(self) -> int:
        return self.edges[-1]

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def vstart(self) -> int:
        return self.vertices[0]

    @property
    def vend(self) -> int:
        return self.vertices[-1]

    def prefix(self, j: int) -> "Chain":
        if not 1 <= j <= len(self.edges):
            raise ValueError(f"prefix length {j} out of range")
        return Chain(self.edges[:j], self.vertices[: j + 1])


# -- dispatch outcomes shared by the fan modules and the engine ---------------


class Step(NamedTuple):
    """A classifier's verdict on one step, which the engine carries out.

    The engine commits ``shift``, a checked fan shift, if there is one;
    then, if ``happy``, it colors the shifted fan's end edge (the blank
    edge itself when there is no shift), or it resolves ``path``, which
    was walked in the shifted coloring.  A shift alone is a content step.
    """

    branch: str
    shift: Optional[Shift] = None
    path: Optional[Chain] = None
    happy: bool = False


# -- operations ----------------------------------------------------------------


def alternating_path(
    phi: PartialColoring, e: int, alpha: int, beta: int, shifted: Shift | None = None
) -> Chain:
    """Maximal two-colored path chain out of blank edge e.

    The endpoint missing ``alpha`` is the start vertex; the walk leaves the
    other endpoint along its alpha-colored edge and then alternates beta,
    alpha, ... for as long as the next color is present.  Properness makes
    every continuation unique and keeps the walked vertices distinct
    (checked, not assumed); the walk can return to the start vertex only as
    its final stop, since the start vertex has no alpha-colored edge.

    Given a ``Shift`` from ``PartialColoring.check_shift`` as ``shifted``,
    the walk reads the coloring psi that committing it would give, without
    touching ``phi`` or checking the shift again: psi differs from phi only
    in the at most 2k (vertex, color) entries of ``shifted.changes``, so
    every lookup goes through that overlay.
    """
    if alpha == beta:
        raise PreconditionViolatedError("alternating colors must differ")
    g = phi.g
    used, common = phi.used_edge, phi.lists.common
    over = {}  # (vertex, color) -> edge carrying it in psi, None if absent
    e_color = phi.color[e]
    if shifted is not None:
        over = shifted.changes
        if e in shifted.edges:
            e_color = shifted.targets[shifted.edges.index(e)]
    if e_color is not None:
        raise EdgeNotBlankError(f"edge {e} is not blank")

    def free(w, c):
        return c in common[w] and over.get((w, c), used[w].get(c)) is None

    u, v = g.endpoints[e]
    if free(u, alpha) and free(v, beta):
        x, y = u, v
    elif free(v, alpha) and free(u, beta):
        x, y = v, u
    else:
        raise PreconditionViolatedError(
            f"edge {e}: colors {alpha}, {beta} not available at opposite endpoints"
        )
    edges = [e]
    vertices = [x, y]
    cur, need, follow = y, alpha, beta
    while True:
        nxt = used[cur].get(need)
        if over:
            nxt = over.get((cur, need), nxt)
        if nxt is None:
            break
        cur = g.other_end(nxt, cur)
        edges.append(nxt)
        vertices.append(cur)
        need, follow = follow, need
        if len(edges) > g.m:
            raise LemmaViolationError("alternating walk revisited an edge")
    interior = vertices[1:]
    if len(set(interior)) != len(interior):
        raise LemmaViolationError("alternating walk revisited a vertex")
    return Chain(tuple(edges), tuple(vertices))


def max_shiftable_prefix(phi: PartialColoring, path: Chain) -> int:
    """Largest j such that shifting the first j edges stays proper and listed.

    ``path`` is a two-colored path out of a blank edge whose start vertex
    misses the first path color, as ``alternating_path`` builds it.  Every
    prefix shift of such a path is proper: the start vertex gains the color
    it missed and each later vertex only trades one path color for the
    other.  So a prefix fails only where edge i would take the color of
    edge i + 1 outside its own list, and one scan finds the first such i;
    the answer is i + 1, or the whole length when every list admits its new
    color.  ``resolve_path`` checks the prefix once, with
    ``PartialColoring.check_shift``, before committing it.

    Raises NotShiftableError if the start edge is colored and
    PreconditionViolatedError if the colors after it do not alternate
    between two values.
    """
    edges = path.edges
    color = phi.color
    if color[edges[0]] is not None:
        raise NotShiftableError(0, START_NOT_BLANK)
    shifted = [color[e] for e in edges[1:]]  # edge i's color after the shift
    head = shifted[:2]
    if None in head or len(set(head)) != len(head) or shifted[2:] != shifted[:-2]:
        raise PreconditionViolatedError("path colors do not alternate between two")
    lists = phi.lists.lists
    for i, c in enumerate(shifted):
        if c not in lists[edges[i]]:
            return i + 1
    return len(edges)


def resolve_path(phi: PartialColoring, path: Chain) -> Chain:
    """Apply the happy-or-content dichotomy to an alternating path, in place.

    Requires the start edge blank and the path's start and end vertices
    distinct (the callers establish the availability conditions when they
    build the path).  Either the full path shifts and its end edge gets a
    color, or a proper prefix shifts and the potential strictly drops.
    Returns the chain it committed: the full path when happy, the shifted
    prefix when content, whose end edge is then the one left blank.
    """
    if phi.color[path.start] is not None:
        raise EdgeNotBlankError(f"edge {path.start} is not blank")
    if path.vstart == path.vend:
        raise PreconditionViolatedError("path start and end vertices coincide")
    k = path.length
    j = max_shiftable_prefix(phi, path)
    if j < min(3, k):
        raise LemmaViolationError(
            f"shiftable prefix {j} below guaranteed minimum {min(3, k)}"
        )
    blanks = phi.blanks
    prefix = path if j == k else path.prefix(j)
    shift = phi.check_shift(prefix.edges)
    phi.apply_chain_shift(shift)
    if j == k:
        c = phi.is_happy(path.end)
        if c is not None:
            phi.assign(path.end, c)
            if phi.blanks != blanks - 1:
                raise LemmaViolationError("happy path did not reduce blank count")
            return path
    # The full shift left the end edge stuck, or a strict prefix was the
    # longest valid shift; the availability total must have dropped.
    if shift.delta < (0, 0) and phi.blanks == blanks:
        return prefix
    raise LemmaViolationError("path neither happy nor content")
