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
never mutates the coloring.  Every returned verdict carries its checked
shift, which the engine commits without checking it again.

Internal to the engine, not exported: ``engine.augment_once`` checks an
edge id's type, its range and that the edge is blank, and picks the pivot
among its endpoints, before it reaches this module, which does not.
"""

from __future__ import annotations

from .chain import Chain, alternating_path
from .coloring import PartialColoring, Shift
from .errors import InternalAssertionError


def vizing_fan(phi: PartialColoring, e: int, x: int) -> tuple[tuple[int, ...], int, int]:
    """(edges, beta, j): the fan's edges around pivot x, e first, and beta
    available at the far ends of both its last edge and ``edges[j - 1]``;
    j == len(edges) exactly when the fan is happy."""
    g = phi.g
    used, ends = phi.used_edge[x], g.endpoints
    u, v = ends[e]
    z = v if u == x else u  # the last leaf
    common, taken, palette = phi.common_mask, phi.used_mask, phi.palette
    working = {}  # leaf -> the bits its polls have not taken yet
    index = {e: 0}  # the fan's edges in fan order -> their positions
    deg = len(g.incidence[x])
    while len(index) <= deg:
        w = working.get(z)
        if w is None:
            w = common[z] & ~taken[z]
        if not w:
            raise InternalAssertionError(f"working set of leaf {z} ran out")
        low = w & -w  # the smallest color left, read as ``smallest`` reads it
        eta = palette[z][low.bit_length() - 1]
        working[z] = w ^ low
        ek = used.get(eta)
        if ek is None:
            return tuple(index), eta, len(index)
        j = index.get(ek)
        if j is not None:
            return tuple(index), eta, j
        index[ek] = len(index)
        u, v = ends[ek]
        z = v if u == x else u
    raise InternalAssertionError("fan construction exhausted the pivot's degree")


def classify_vizing(
    phi: PartialColoring, e: int, x: int
) -> tuple[str, Shift | None, Chain | None, bool]:
    """Happy fan, content fan (full or prefix), or a path under the shift.

    Returns the verdict ``(branch, shift, path, happy)`` that
    ``engine.augment_once`` carries out (see ``chain``).

    Each candidate shift is checked once, with its exact potential change,
    and the returned verdict carries the checked shift to the engine's
    commit.  The path fallback walks the alternating path in the coloring
    the candidate's shift would give, read through the shift's overlay, so
    the live coloring is never touched.
    """
    fan, beta, j = vizing_fan(phi, e, x)
    if j == len(fan):
        return "happy-fan", phi.check_shift(fan), None, True
    shifts = []
    for cand, branch in ((fan, "content-fan-full"),
                         (fan[:j], "content-fan-prefix")):
        shift = phi.check_shift(cand)
        if shift.delta < (0, 0):
            return branch, shift, None, False
        shifts.append(shift)
    alpha = phi.smallest(x, phi.available_mask(x))
    if alpha is None:
        raise InternalAssertionError("no available color at the pivot")
    for shift, branch in zip(shifts, ("path-psi-full", "path-psi-prefix")):
        da, _ = shift.delta
        if da != 0:
            raise InternalAssertionError("fan shift changed the availability total")
        path = alternating_path(phi, shift.edges[-1], alpha, beta, shifted=shift)
        if not path.closed:
            return branch, shift, path, False
    raise InternalAssertionError(
        "both fan path candidates are circular (last tried path-psi-prefix)"
    )
