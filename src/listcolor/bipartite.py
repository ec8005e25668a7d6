"""Path construction for bipartite graphs under the deg(x) guarantee.

On a bipartite graph no fans are needed: take the smallest available
colors at the blank edge's two endpoints.  If they agree the edge itself
is already extendable; otherwise the alternating path built from them can
never return to its start vertex, because any edge entering that vertex
would, by side parity, carry the very color the vertex is missing.  The
parity argument is asserted on every constructed path.
"""

from __future__ import annotations

from .chain import Chain, alternating_path
from .coloring import PartialColoring
from .errors import (
    AvailabilityEmptyError,
    EdgeNotBlankError,
    LemmaViolationError,
    NotBipartiteError,
)


def koenig_path(phi: PartialColoring, e: int) -> Chain:
    g = phi.g
    if g.bipartition() is None:
        raise NotBipartiteError("koenig augmentation requires a bipartite graph")
    if phi.color[e] is not None:
        raise EdgeNotBlankError(f"edge {e} is not blank")
    u, v = g.endpoints[e]
    for w in (u, v):
        if not phi.available[w]:
            raise AvailabilityEmptyError(f"no available color at vertex {w}")
    alpha = min(phi.available[u])
    beta = min(phi.available[v])
    if alpha == beta:
        return Chain((e,), (u, v))
    path = alternating_path(phi, e, alpha, beta)
    if path.vstart == path.vend:
        raise LemmaViolationError("bipartite parity violated: path returned home")
    return path
