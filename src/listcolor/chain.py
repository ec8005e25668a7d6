"""Alternating path chains and their resolution.

A shift works on a sequence of distinct edges in which consecutive edges
share exactly one vertex; its first edge is blank and every later edge is
colored.  Shifting moves each edge's color one position toward the front,
so the start edge takes a color and the last edge goes blank.  A fan is
such a sequence around one pivot and travels as its plain edge tuple;
``PartialColoring.check_shift`` refuses any sequence of another shape.
A ``Chain`` is a path: its vertices x_0..x_k have x_0 the start vertex
and x_{i+1} the far end of edge i, and x_1..x_k are distinct (the start
vertex may only reappear as the final vertex).  Two-colored alternating
paths are the repair tool of the whole engine:

``resolve_path`` takes an alternating path whose start edge misses one
path color at each endpoint and whose end vertex differs from its start
vertex, finds the longest prefix whose shift stays proper and inside the
lists, and then either colors the path's last edge (a happy outcome,
one more edge colored) or commits the prefix shift (a content outcome,
strictly smaller potential).  One of the two must apply; anything else
raises an internal assertion.  A one-edge path moves no color when
shifted, so it is the happy outcome itself: its edge is colored directly.

A classifier's verdict on one step is the plain tuple
``(branch, shift, path, happy)``, which the engine carries out: it
commits ``shift``, a checked fan shift or None (a one-edge fan shift
moves nothing and needs no commit); then, if ``happy``, it
colors the shifted fan's end edge (the blank edge itself when there is
no shift), or it resolves ``path``, a ``Chain`` walked in the shifted
coloring, or None.  A shift alone is a content step.

Internal to the engine, not exported: ``engine.augment_once`` checks an
edge id's type and range before it reaches this module, which does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import PartialColoring, Shift
from .errors import (
    START_NOT_BLANK,
    InternalAssertionError,
    NotShiftableError,
    PreconditionViolatedError,
)


@dataclass(frozen=True, slots=True)
class Chain:
    """A path whose edge colors a shift moves one place toward the front.

    ``vertices`` is x_0..x_k: x_0 is the start vertex and edge i joins
    x_i and x_{i+1}; x_1..x_k are distinct, and x_0 may coincide only
    with a later x_i.
    """

    edges: tuple[int, ...]
    vertices: tuple[int, ...]


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

    Given as ``shifted`` a shift that ``PartialColoring.check_shift`` checked
    at phi's current stamp (else PreconditionViolatedError), the walk reads
    the coloring psi that committing it would give, without touching phi:
    phi's live colors moved one place along the chain, with used maps that
    differ only in the at most 2k entries of the overlay ``shifted.changes``.
    """
    if shifted is not None and shifted.stamp != phi.stamp:
        raise PreconditionViolatedError("stale shift: the coloring changed since")
    if alpha == beta:
        raise PreconditionViolatedError("alternating colors must differ")
    g = phi.g
    used, common, ends = phi.used_edge, phi.lists.common, g.endpoints
    over = {}  # (vertex, color) -> edge carrying it in psi, None if absent
    blank = phi.color[e] is None
    if shifted is not None:
        over = shifted.changes
        if e in shifted.edges:  # blank in psi only at the chain's end edge
            blank = e == shifted.edges[-1]
    if not blank:
        raise PreconditionViolatedError(f"edge {e} is not blank")

    u, v = ends[e]
    for x, y in ((u, v), (v, u)):  # x misses alpha and y misses beta
        if (alpha in common[x] and over.get((x, alpha), used[x].get(alpha)) is None
                and beta in common[y] and over.get((y, beta), used[y].get(beta)) is None):
            break
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
        a, b = ends[nxt]
        cur = b if a == cur else a
        edges.append(nxt)
        vertices.append(cur)
        need, follow = follow, need
        if len(edges) > g.m:
            raise InternalAssertionError("alternating walk revisited an edge")
    interior = vertices[1:]
    if len(set(interior)) != len(interior):
        raise InternalAssertionError("alternating walk revisited a vertex")
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

    Raises NotShiftableError for a colored start edge, and
    PreconditionViolatedError for an empty path or non-alternating colors.
    """
    edges = path.edges
    if not edges:
        raise PreconditionViolatedError("path has no edges")
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


def resolve_path(phi: PartialColoring, path: Chain) -> tuple[int, ...]:
    """Apply the happy-or-content dichotomy to an alternating path, in place.

    Requires one more vertex than edges and the path's start and end
    vertices distinct (else PreconditionViolatedError), and its start edge
    blank (else NotShiftableError), all before any change; the callers
    establish the availability conditions when they build the path.
    Either the full path shifts and its end edge gets a color, or a proper
    prefix shifts and the potential strictly drops.  A one-edge path is
    colored directly, with no prefix scan, check or commit.  Returns the
    edges it committed: the full path's when happy, the shifted prefix's
    when content, whose end edge is then the one left blank.
    """
    edges, vertices = path.edges, path.vertices
    if len(vertices) != len(edges) + 1:
        raise PreconditionViolatedError(
            f"path has {len(edges)} edges but {len(vertices)} vertices"
        )
    if vertices[0] == vertices[-1]:
        raise PreconditionViolatedError("path start and end vertices coincide")
    k = len(edges)
    if k == 1:  # shifting one edge moves no color: the edge is the happy outcome
        e = edges[0]
        if phi.color[e] is not None:
            raise NotShiftableError(0, START_NOT_BLANK)
        c = phi.is_happy(e)
        if c is None:
            raise InternalAssertionError(f"one-edge path {e} has no color to take")
        phi.assign(e, c)
        return edges
    j = max_shiftable_prefix(phi, path)
    if j < min(3, k):
        raise InternalAssertionError(
            f"shiftable prefix {j} below guaranteed minimum {min(3, k)}"
        )
    prefix = edges[:j]
    shift = phi.check_shift(prefix)
    phi.apply_chain_shift(shift)
    if j == k:
        c = phi.is_happy(edges[-1])
        if c is not None:
            phi.assign(edges[-1], c)
            return edges
    # The full shift left the end edge stuck, or a strict prefix was the
    # longest valid shift; the availability total must have dropped.
    if shift.delta < (0, 0):
        return prefix
    raise InternalAssertionError("path neither happy nor content")
