"""Fan construction and case dispatch for the floor(3 deg / 2) guarantee.

The fan here is short: either the blank edge alone (its higher-degree
endpoint has a color missing at the other end) or that edge plus the
pivot's edge carrying the smallest color available at the higher-degree
endpoint.  Classification distinguishes:

1. the two-edge fan frees a usable color at the far leaf (happy fan),
2. the shifted color leaves the far leaf's common set (content: the
   availability total drops),
3. the far leaf has smaller degree than the near one (content: the
   degree-weighted blank count drops),
4. otherwise both leaves' availabilities sit inside the pivot's used set;
   the guarantee forces them to intersect, and an alternating path from
   the blank edge (or, failing its end-vertex condition, from the shifted
   fan's end edge) hands the work to the path resolution.

Case 4's fallback disjunction is validated at run time, not assumed.
"""

from __future__ import annotations

from .chain import Chain, Step, alternating_path
from .coloring import PartialColoring
from .errors import (
    AvailabilityEmptyError,
    EdgeNotBlankError,
    LemmaViolationError,
)

HAPPY_EDGE = Step("happy-edge", happy=True)  # the engine colors the blank edge


def _orient(phi: PartialColoring, e: int) -> tuple[int, int]:
    """Endpoints of e as (x, y) with deg(x) <= deg(y); index breaks ties."""
    u, v = phi.g.endpoints[e]
    if (phi.g.degree(u), u) <= (phi.g.degree(v), v):
        return u, v
    return v, u


def shannon_fan(phi: PartialColoring, e: int) -> Chain:
    """The fan the dispatcher works on: (e) if the quick happy check fires,
    else (e, f) with f the pivot's edge colored min available at y."""
    if phi.color[e] is not None:
        raise EdgeNotBlankError(f"edge {e} is not blank")
    x, y = _orient(phi, e)
    avail_y = phi.available[y]
    if any(c not in phi.used_edge[x] for c in avail_y):
        return Chain((e,), (x, y))
    if not avail_y:
        raise AvailabilityEmptyError(
            f"no available color at vertex {y}; the degree bound cannot hold"
        )
    eta = min(avail_y)
    f = phi.used_edge[x].get(eta)
    if f is None:
        raise LemmaViolationError("available color at y not used at x after check")
    z = phi.g.other_end(f, x)
    return Chain((e, f), (x, y, z))


def classify_shannon(phi: PartialColoring, e: int) -> Step:
    """Dispatch the fan into one of the outcome kinds described above.

    Does not mutate.  A returned fan shift is checked once, with
    ``PartialColoring.check_shift``, and the engine commits it without
    checking it again; the case-4 fallback path is walked in the coloring
    that checked shift would give, through its overlay of changed entries.
    """
    fan = shannon_fan(phi, e)
    x, y = fan.vertices[:2]
    if fan.length == 1:
        return HAPPY_EDGE
    f = fan.edges[1]
    z = fan.vertices[2]
    eta = phi.color[f]
    if any(c not in phi.used_edge[x] for c in phi.available[z]):
        return Step("case1-happy-fan", phi.check_shift(fan.edges), happy=True)
    if eta not in phi.lists.common[z]:
        return Step("case2-content-fan", phi.check_shift(fan.edges))
    if phi.g.degree(z) < phi.g.degree(y):
        return Step("case3-content-fan", phi.check_shift(fan.edges))
    # Final case: both availabilities inside used(x), so they intersect.
    inter = phi.available[y] & phi.available[z]
    if not inter:
        raise LemmaViolationError("final-case availability intersection is empty")
    if not phi.available[x]:
        raise LemmaViolationError("no available color at the pivot")
    beta = min(inter)
    alpha = min(phi.available[x])
    p1 = alternating_path(phi, e, alpha, beta)
    if p1.vstart != p1.vend:
        return Step("final-path-phi", path=p1)
    shift = phi.check_shift(fan.edges)
    if shift.delta.a != 0:
        raise LemmaViolationError("fan shift changed the availability total")
    p2 = alternating_path(phi, f, alpha, beta, shifted=shift)
    if p2.vstart == p2.vend:
        raise LemmaViolationError("both fallback path candidates are circular")
    return Step("final-path-psi", shift, p2)
