"""Alternating path chains and their resolution.

A shift works on a sequence of distinct edges in which consecutive edges
share exactly one vertex; its first edge is blank and every later edge is
colored.  Shifting moves each edge's color one position toward the front,
so the start edge takes a color and the last edge goes blank.  A fan is
such a sequence around one pivot and travels as its plain edge tuple;
``PartialColoring.check_shift`` refuses any sequence of another shape.
A ``Chain`` is a path: its edges, and whether it is ``closed``, its walk
ended back at its start vertex.  Two-colored alternating paths are the
repair tool of the whole engine:

``resolve_path`` takes an alternating path that is not closed and whose
start edge misses one path color at each endpoint, finds the longest
prefix whose shift stays proper and inside the lists, and then either
colors the path's last edge (a happy outcome, one more edge colored) or
commits the prefix shift (a content outcome, strictly smaller
potential).  One of the two must apply; anything else raises an internal
assertion.  A one-edge path moves no color when
shifted, so it is the happy outcome itself: its edge is colored directly.

A classifier's verdict on one step is the plain tuple
``(branch, shift, path, happy)``, which the engine carries out: it
commits ``shift``, a checked fan shift or None (a one-edge fan shift
moves nothing and needs no commit); then, if ``happy``, it
colors the shifted fan's end edge (the blank edge itself when there is
no shift), or it resolves ``path``, a ``Chain`` walked in the shifted
coloring, or None.  A shift alone is a content step.

Internal to the engine, not exported: ``engine.augment_once`` checks an
edge id's type, its range and that the edge is blank before it reaches
this module, which does not.  ``alternating_path`` checks the shape of its
walk, and ``PartialColoring.check_shift`` each chain before its commit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import PartialColoring, Shift
from .errors import InternalAssertionError, PreconditionViolatedError


@dataclass(frozen=True, slots=True)
class Chain:
    """A path whose edge colors a shift moves one place toward the front.

    Its vertices x_0..x_k (x_0 the start vertex, edge i joining x_i and
    x_{i+1}) are distinct, except that x_k is x_0 when ``closed``.
    """

    edges: tuple[int, ...]
    closed: bool


# -- operations ----------------------------------------------------------------


def alternating_path(
    phi: PartialColoring, e: int, alpha: int, beta: int, shifted: Shift | None = None
) -> Chain:
    """Maximal two-colored path chain out of blank edge e.

    The endpoint missing ``alpha`` is the start vertex; the walk leaves the
    other endpoint along its alpha-colored edge and then alternates beta,
    alpha, ... for as long as the next color is present.  Properness makes
    every continuation unique and keeps the walked vertices distinct; the
    walk can return to the start vertex only as its final stop, since the
    start vertex has no alpha-colored edge, and the path is then closed.
    Each step refuses a vertex already walked (the start vertex once) with
    InternalAssertionError, so the walk ends on any state.  e must be blank
    (in psi, given ``shifted``) and alpha and beta must differ, as every
    caller's are; PreconditionViolatedError if the two colors are not
    available at opposite endpoints of e.

    Given as ``shifted`` a shift that ``PartialColoring.check_shift`` checked
    at phi's current stamp (else PreconditionViolatedError), the walk reads
    the coloring psi that committing it would give, without touching phi:
    phi's live colors moved one place along the chain, with used maps that
    differ only in the at most 2k entries of the overlay ``shifted.changes``.
    """
    over = {}  # (vertex, color) -> edge carrying it in psi, None if absent
    if shifted is not None:
        if shifted.stamp != phi.stamp:
            raise PreconditionViolatedError("stale shift: the coloring changed since")
        over = shifted.changes
    used, common, ends = phi.used_edge, phi.lists.common, phi.g.endpoints
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
    seen = {y}  # the walked vertices after the start vertex
    cur, need, follow = y, alpha, beta
    while True:
        nxt = used[cur].get(need)
        if over:
            nxt = over.get((cur, need), nxt)
        if nxt is None:
            return Chain(tuple(edges), cur == x)
        a, b = ends[nxt]
        cur = b if a == cur else a
        if cur in seen:
            raise InternalAssertionError(f"alternating walk revisited vertex {cur}")
        seen.add(cur)
        edges.append(nxt)
        need, follow = follow, need


def max_shiftable_prefix(phi: PartialColoring, path: Chain) -> int:
    """Largest j such that shifting the first j edges stays proper and listed.

    ``path`` is a two-colored path out of a blank edge whose start vertex
    misses the first path color, as ``alternating_path`` builds it.  Every
    prefix shift of such a path is proper: the start vertex gains the color
    it missed and each later vertex only trades one path color for the
    other.  So a prefix fails only where edge i would take the color of
    edge i + 1 outside its own list, and one scan finds the first such i;
    the answer is i + 1, or the whole length when every list admits its new
    color.  Nothing else is checked here: ``resolve_path`` checks the prefix
    once, with ``PartialColoring.check_shift``, before committing it.
    """
    edges, color, lists = path.edges, phi.color, phi.lists.lists
    for j, (e, f) in enumerate(zip(edges, edges[1:]), 1):
        if color[f] not in lists[e]:  # e would take f's color
            return j
    return len(edges)


def resolve_path(phi: PartialColoring, path: Chain) -> tuple[int, ...]:
    """Apply the happy-or-content dichotomy to an alternating path, in place.

    Refuses a closed path (PreconditionViolatedError) before any change;
    ``alternating_path`` vouches for the rest of its shape, and the callers
    for the availability conditions.  Either the full path shifts and its
    end edge gets a color, or a proper prefix shifts and the potential
    strictly drops.  A one-edge path is colored directly, with no prefix
    scan, check or commit (``is_happy`` refuses a colored edge); a longer
    path's prefix is checked by ``PartialColoring.check_shift``.  Returns
    the edges it committed: the full path's when happy, the shifted
    prefix's when content, whose end edge is then the one left blank.
    """
    if path.closed:
        raise PreconditionViolatedError("path start and end vertices coincide")
    edges = path.edges
    k = len(edges)
    if k == 1:  # shifting one edge moves no color: the edge is the happy outcome
        e = edges[0]
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
