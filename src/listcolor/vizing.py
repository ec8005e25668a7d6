"""Fan construction and dispatch for the deg + mu guarantee.

The fan grows around a fixed pivot: repeatedly take the smallest color
still in the working set of the current leaf; if the pivot misses that
color the fan is immediately recolorable (happy), otherwise the pivot's
edge carrying it either extends the fan or closes it onto an earlier
index j.  Working sets start as the leaves' availability sets and shrink
by one per poll; since each leaf has at least its multiplicity many
available colors, a poll never sees an empty set.  A first poll reads
the availability set in place; only a leaf polled again, over a parallel
edge, gets a working set: a copy less the color its first poll took.

Dispatch checks the shift of the full fan, then of the prefix ending at
j, with ``PartialColoring.check_shift``, which computes each shift's
exact potential change without touching the coloring, and returns
whichever strictly improves; if neither does, the availability total is
provably unchanged by both shifts and an alternating path from the
shifted fan's end edge (full first, prefix as fallback) must satisfy the
path-resolution conditions.  That path is walked in the shifted coloring
through the checked shift's overlay of changed entries; classification
never mutates the coloring.  Every returned step carries its checked
shift, which the engine commits without checking it again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import Chain, Step, alternating_path
from .coloring import PartialColoring
from .errors import (
    BetaEmptyError,
    EdgeNotBlankError,
    LemmaViolationError,
    PreconditionViolatedError,
)


@dataclass(frozen=True, slots=True)
class VizingFanResult:
    fan: Chain
    beta: int  # available at both the fan's end leaf and the prefix's end leaf
    j: int  # == fan.length exactly when the happy return fired


def vizing_fan(phi: PartialColoring, e: int, x: int) -> VizingFanResult:
    if phi.color[e] is not None:
        raise EdgeNotBlankError(f"edge {e} is not blank")
    g = phi.g
    if x not in g.endpoints[e]:
        raise PreconditionViolatedError(f"pivot {x} is not an endpoint of edge {e}")
    y = g.other_end(e, x)
    used, available = phi.used_edge[x], phi.available
    first, beta_sets = {}, {}  # leaf -> its first poll's color, its working set
    index = {e: 0}
    edges = [e]
    vertices = [x, y]
    k = 0
    deg = len(g.incidence[x])
    while k < deg:
        z = vertices[-1]
        eta = first.get(z)
        working = available[z] if eta is None else beta_sets.get(z)
        if working is None:  # polled again: copy, less the first poll's color
            working = beta_sets[z] = available[z] - {eta}
        if not working:
            raise BetaEmptyError(f"working set of leaf {z} ran out")
        if eta is None:  # first poll, in place
            eta = first[z] = min(working)
        else:
            eta = min(working)
            working.remove(eta)
        if eta not in used:
            fan = Chain(tuple(edges), tuple(vertices))
            return VizingFanResult(fan, eta, k + 1)
        k += 1
        ek = used[eta]
        if ek in index:
            fan = Chain(tuple(edges), tuple(vertices))
            return VizingFanResult(fan, eta, index[ek])
        index[ek] = k
        edges.append(ek)
        vertices.append(g.other_end(ek, x))
    raise LemmaViolationError("fan construction exhausted the pivot's degree")


def classify_vizing(phi: PartialColoring, e: int, x: int) -> Step:
    """Happy fan, content fan (full or prefix), or a path under the shift.

    Each candidate shift is checked once, with its exact potential change,
    and the returned step carries the checked shift to the engine's
    commit.  The path fallback walks the alternating path in the coloring
    the candidate's shift would give, read through the shift's overlay, so
    the live coloring is never touched.
    """
    res = vizing_fan(phi, e, x)
    fan, beta = res.fan, res.beta
    if res.j == fan.length:
        return Step("happy-fan", phi.check_shift(fan.edges), happy=True)
    shifts = []
    for cand, branch in ((fan, "content-fan-full"),
                         (fan.prefix(res.j), "content-fan-prefix")):
        shift = phi.check_shift(cand.edges)
        if shift.delta < (0, 0):
            return Step(branch, shift)
        shifts.append(shift)
    if not phi.available[x]:
        raise LemmaViolationError("no available color at the pivot")
    alpha = min(phi.available[x])
    for shift, branch in zip(shifts, ("path-psi-full", "path-psi-prefix")):
        if shift.delta.a != 0:
            raise LemmaViolationError("fan shift changed the availability total")
        path = alternating_path(phi, shift.edges[-1], alpha, beta, shifted=shift)
        if path.vstart != path.vend:
            return Step(branch, shift, path)
    raise LemmaViolationError(
        "both fan path candidates are circular (last tried path-psi-prefix)"
    )
