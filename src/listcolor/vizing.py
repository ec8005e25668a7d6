"""Fan construction and dispatch for the deg + mu guarantee.

The fan grows around a fixed pivot: repeatedly take the smallest color
still in the working set of the current leaf; if the pivot misses that
color the fan is immediately recolorable (happy), otherwise the pivot's
edge carrying it either extends the fan or closes it onto an earlier
index j.  A leaf's working set starts as its availability mask and each
poll takes its lowest bit, so the k-th poll of a leaf reached over k
parallel edges reads its k-th smallest available color; since each leaf
has at least its multiplicity many available colors, a poll never sees
an empty set.  A working set is an int, so nothing is copied.

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

from .chain import Chain, Step, alternating_path
from .coloring import PartialColoring
from .errors import (
    BetaEmptyError,
    EdgeNotBlankError,
    LemmaViolationError,
    PreconditionViolatedError,
)


def vizing_fan(phi: PartialColoring, e: int, x: int) -> tuple[Chain, int, int]:
    """(fan, beta, j): beta is available at the end leaves of both fan and
    ``fan.prefix(j)``, and j == len(fan.edges) exactly when the fan is happy."""
    if phi.color[e] is not None:
        raise EdgeNotBlankError(f"edge {e} is not blank")
    g = phi.g
    if x not in g.endpoints[e]:
        raise PreconditionViolatedError(f"pivot {x} is not an endpoint of edge {e}")
    y = g.other_end(e, x)
    used, available, smallest = phi.used_edge[x], phi.available_mask, phi.smallest
    working = {}  # leaf -> the bits its polls have not taken yet
    index = {e: 0}
    edges = [e]
    vertices = [x, y]
    k = 0
    deg = len(g.incidence[x])
    while k < deg:
        z = vertices[-1]
        w = working.get(z)
        if w is None:
            w = available(z)
        if not w:
            raise BetaEmptyError(f"working set of leaf {z} ran out")
        eta = smallest(z, w)
        working[z] = w & (w - 1)  # the lowest bit taken
        ek = used.get(eta)
        if ek is None:
            return Chain(tuple(edges), tuple(vertices)), eta, k + 1
        k += 1
        if ek in index:
            return Chain(tuple(edges), tuple(vertices)), eta, index[ek]
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
    fan, beta, j = vizing_fan(phi, e, x)
    if j == len(fan.edges):
        return Step("happy-fan", phi.check_shift(fan.edges), happy=True)
    shifts = []
    for cand, branch in ((fan, "content-fan-full"),
                         (fan.prefix(j), "content-fan-prefix")):
        shift = phi.check_shift(cand.edges)
        if shift.delta < (0, 0):
            return Step(branch, shift)
        shifts.append(shift)
    alpha = phi.smallest(x, phi.available_mask(x))
    if alpha is None:
        raise LemmaViolationError("no available color at the pivot")
    for shift, branch in zip(shifts, ("path-psi-full", "path-psi-prefix")):
        if shift.delta.a != 0:
            raise LemmaViolationError("fan shift changed the availability total")
        path = alternating_path(phi, shift.edges[-1], alpha, beta, shifted=shift)
        if path.vertices[0] != path.vertices[-1]:
            return Step(branch, shift, path)
    raise LemmaViolationError(
        "both fan path candidates are circular (last tried path-psi-prefix)"
    )
