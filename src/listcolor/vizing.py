"""Fan construction and dispatch for the deg + mu guarantee.

The fan grows around a fixed pivot: repeatedly take the smallest color
still in the working set of the current leaf; if the pivot misses that
color the fan is immediately recolorable (happy), otherwise the pivot's
edge carrying it either extends the fan or closes it onto an earlier
index j.  Working sets start as the leaves' availability sets and shrink
by one per poll; since each leaf has at least its multiplicity many
available colors, a poll never sees an empty set.

A leaf's working set is copied from its availability set only when the
leaf is first polled; a leaf reached again over a parallel edge keeps
shrinking the same set.

Dispatch computes the potential change of shifting the full fan, then the
prefix ending at j, without touching the coloring, and commits whichever
strictly improves; if neither does, the availability total is provably
unchanged by both shifts and an alternating path from the shifted fan's
end edge (full first, prefix as fallback) must satisfy the
path-resolution conditions.  That path is walked in the shifted coloring
through an overlay of the fan's changed entries; classification never
mutates the coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import (
    Chain,
    ContentFan,
    HappyFan,
    PathUnderPsi,
    alternating_path,
)
from .coloring import PartialColoring
from .errors import (
    BetaEmptyError,
    EdgeNotBlankError,
    LemmaViolationError,
    PreconditionViolatedError,
)


@dataclass(frozen=True)
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
    used = phi.used_edge[x]
    beta_sets = {}  # leaf -> working set, copied when the leaf is first polled
    index = {e: 0}
    edges = [e]
    vertices = [x, y]
    k = 0
    deg = len(g.incidence[x])
    while k < deg:
        z = vertices[-1]
        working = beta_sets.get(z)
        if working is None:
            working = beta_sets[z] = set(phi.available[z])
            phi.ops += len(working)
        if not working:
            raise BetaEmptyError(f"working set of leaf {z} ran out")
        eta = min(working)
        working.remove(eta)
        phi.ops += len(working) + 1
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


def _fan_shift_delta(phi: PartialColoring, fan: Chain) -> tuple[int, int]:
    """Potential change (da, dd) of shifting ``fan``; the coloring is not touched.

    Raises NotShiftableError as ``apply_chain_shift`` would.  The pivot
    keeps its used set; leaf y_i loses c_i and gains c_{i+1}.  A color lost
    and gained at the same leaf over parallel edges counts +1 and -1, so
    summing per edge nets it per leaf.  An edge that goes blank raises d by
    its degree weight and one that gets colored lowers it; in a vizing fan
    those are the end and the start edge.
    """
    edges = fan.edges
    old, targets, _ = phi.shift_targets(edges)
    common, weight = phi.lists.common, phi.weight
    da = dd = 0
    for f, z, lost, gained in zip(edges, fan.vertices[1:], old, targets):
        cz = common[z]
        da += (lost in cz) - (gained in cz)
        dd += weight[f] * ((gained is None) - (lost is None))
    return da, dd


def classify_vizing(phi: PartialColoring, e: int, x: int):
    """Happy fan, content fan (full or prefix), or a path under the shift.

    Each candidate shift is checked and its potential change computed
    without mutating.  The path fallback walks the alternating path in the
    coloring the candidate's shift would give, read through an overlay, so
    the live coloring is never touched.
    """
    res = vizing_fan(phi, e, x)
    fan, beta = res.fan, res.beta
    if res.j == fan.length:
        return HappyFan(fan, branch="happy-fan")
    prefix = fan.prefix(res.j)
    candidates = ((fan, "content-fan-full", "path-psi-full"),
                  (prefix, "content-fan-prefix", "path-psi-prefix"))
    delta_a = []
    for cand, branch, _ in candidates:
        da, dd = _fan_shift_delta(phi, cand)
        if (da, dd) < (0, 0):
            return ContentFan(cand, branch=branch)
        delta_a.append(da)
    if not phi.available[x]:
        raise LemmaViolationError("no available color at the pivot")
    alpha = min(phi.available[x])
    last_error = None
    for (cand, _, branch), da in zip(candidates, delta_a):
        if da != 0:
            raise LemmaViolationError("fan shift changed the availability total")
        path = alternating_path(phi, cand.end, alpha, beta, shifted=cand)
        if path.vstart != path.vend:
            return PathUnderPsi(cand, path, alpha, beta, branch=branch)
        last_error = branch
    raise LemmaViolationError(
        f"both fan path candidates are circular (last tried {last_error})"
    )
