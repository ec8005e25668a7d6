"""Path construction for bipartite graphs under the deg(x) guarantee.

On a bipartite graph no fans are needed: take the smallest available
colors at the blank edge's two endpoints.  If they agree the edge itself
is already extendable; otherwise the alternating path built from them can
never return to its start vertex, because any edge entering that vertex
would, by side parity, carry the very color the vertex is missing.  The
parity argument is asserted on every constructed path.

Internal to the engine, not exported: ``engine.augment_once`` checks an
edge id's type, its range and that the edge is blank before it reaches
this module, which does not.
"""

from __future__ import annotations

from .chain import Chain, alternating_path
from .coloring import PartialColoring
from .errors import (
    InternalAssertionError,
    NotBipartiteError,
    PreconditionViolatedError,
)


def koenig_path(phi: PartialColoring, e: int) -> Chain:
    g = phi.g
    if g.bipartition() is None:
        raise NotBipartiteError("koenig augmentation requires a bipartite graph")
    u, v = g.endpoints[e]
    alpha = phi.smallest(u, phi.available_mask(u))
    beta = phi.smallest(v, phi.available_mask(v))
    for w, c in ((u, alpha), (v, beta)):
        if c is None:
            raise PreconditionViolatedError(f"no available color at vertex {w}")
    if alpha == beta:
        return Chain((e,), False)
    path = alternating_path(phi, e, alpha, beta)
    if path.closed:
        raise InternalAssertionError("bipartite parity violated: path returned home")
    return path
