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

Every availability question is asked of the coloring's color masks: the
quick happy check and case 1 look for a color available at the leaf and
unused at the pivot (``smallest_unused``), the fan's color and alpha are
lowest bits (``smallest``), and beta is the lowest bit of the two
leaves' shared availability (``smallest_shared``); none copies a set.

Internal to the engine, not exported: ``engine.augment_once`` checks an
edge id's type, its range and that the edge is blank before it reaches
this module, which does not.
"""

from __future__ import annotations

from .chain import Chain, alternating_path
from .coloring import PartialColoring, Shift
from .errors import InternalAssertionError, PreconditionViolatedError

HAPPY_EDGE = ("happy-edge", None, None, True)  # the engine colors the blank edge


def _orient(phi: PartialColoring, e: int) -> tuple[int, int]:
    """Endpoints of e as (x, y) with deg(x) <= deg(y); index breaks ties."""
    u, v = phi.g.endpoints[e]
    inc = phi.g.incidence
    if (len(inc[u]), u) <= (len(inc[v]), v):
        return u, v
    return v, u


def shannon_fan(phi: PartialColoring, e: int) -> tuple[int, int, int | None]:
    """(x, y, f): e's endpoints with deg(x) <= deg(y), and f the pivot x's
    edge colored min available at y, or None when the quick happy check
    fires (a color available at y is unused at x).  The fan is (e,) or
    (e, f), and its far leaf is f's other end."""
    x, y = _orient(phi, e)
    if phi.smallest_unused(y, x) is not None:
        return x, y, None
    avail_y = phi.available_mask(y)
    if not avail_y:
        raise PreconditionViolatedError(
            f"no available color at vertex {y}; the degree bound cannot hold"
        )
    f = phi.used_edge[x].get(phi.smallest(y, avail_y))
    if f is None:
        raise InternalAssertionError("available color at y not used at x after check")
    return x, y, f


def classify_shannon(
    phi: PartialColoring, e: int
) -> tuple[str, Shift | None, Chain | None, bool]:
    """Dispatch the fan into one of the outcome kinds described above.

    Returns the verdict ``(branch, shift, path, happy)`` that
    ``engine.augment_once`` carries out (see ``chain``).

    Does not mutate.  A returned fan shift is checked once, with
    ``PartialColoring.check_shift``, and the engine commits it without
    checking it again; the case-4 fallback path is walked in the coloring
    that checked shift would give, through its overlay of changed entries.
    """
    x, y, f = shannon_fan(phi, e)
    if f is None:
        return HAPPY_EDGE
    fan = (e, f)
    z = phi.g.other_end(f, x)
    if phi.smallest_unused(z, x) is not None:
        return "case1-happy-fan", phi.check_shift(fan), None, True
    if phi.color[f] not in phi.lists.common[z]:
        return "case2-content-fan", phi.check_shift(fan), None, False
    inc = phi.g.incidence
    if len(inc[z]) < len(inc[y]):
        return "case3-content-fan", phi.check_shift(fan), None, False
    # Final case: both availabilities inside used(x), so they intersect.
    beta = phi.smallest_shared(y, z)
    if beta is None:
        raise InternalAssertionError("final-case availability intersection is empty")
    alpha = phi.smallest(x, phi.available_mask(x))
    if alpha is None:
        raise InternalAssertionError("no available color at the pivot")
    p1 = alternating_path(phi, e, alpha, beta)
    if not p1.closed:
        return "final-path-phi", None, p1, False
    shift = phi.check_shift(fan)
    da, _ = shift.delta
    if da != 0:
        raise InternalAssertionError("fan shift changed the availability total")
    p2 = alternating_path(phi, f, alpha, beta, shifted=shift)
    if p2.closed:
        raise InternalAssertionError("both fallback path candidates are circular")
    return "final-path-psi", shift, p2, False
