"""Loopless multigraph with stable edge identities.

Edges are numbered by their position in the input list, so parallel edges
are distinct objects; chains are sequences of edge ids and rely on that.
Instances are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from collections import deque

from .errors import LoopEdgeError, VertexOutOfRangeError


class Multigraph:
    """An undirected loopless multigraph on vertices ``0..n-1``.

    ``endpoints[e]`` is the (u, v) pair of edge ``e`` in input order and
    ``incidence[x]`` lists the edge ids incident to ``x``.
    """

    __slots__ = (
        "n",
        "m",
        "endpoints",
        "incidence",
        "_pair_mult",
        "_mu_vertex",
        "_max_degree",
        "_bipartition",
        "_bipartition_done",
    )

    def __init__(self, n: int, edge_list):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        endpoints = []
        incidence = [[] for _ in range(n)]
        pair_mult: dict[tuple[int, int], int] = {}
        for e, (u, v) in enumerate(edge_list):
            for w in (u, v):
                if not 0 <= w < n:
                    raise VertexOutOfRangeError(w, n)
            if u == v:
                raise LoopEdgeError(u)
            endpoints.append((u, v))
            incidence[u].append(e)
            incidence[v].append(e)
            key = (u, v) if u < v else (v, u)
            pair_mult[key] = pair_mult.get(key, 0) + 1
        self.m = len(endpoints)
        self.endpoints = tuple(endpoints)
        self.incidence = tuple(tuple(es) for es in incidence)
        self._pair_mult = pair_mult
        mu = [0] * n
        for (u, v), k in pair_mult.items():
            if k > mu[u]:
                mu[u] = k
            if k > mu[v]:
                mu[v] = k
        self._mu_vertex = tuple(mu)
        self._max_degree = max((len(es) for es in self.incidence), default=0)
        self._bipartition = None
        self._bipartition_done = False

    def _check_vertex(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise VertexOutOfRangeError(x, self.n)

    def degree(self, x: int) -> int:
        self._check_vertex(x)
        return len(self.incidence[x])

    def multiplicity(self, x: int, y: int) -> int:
        self._check_vertex(x)
        self._check_vertex(y)
        if x == y:
            return 0
        key = (x, y) if x < y else (y, x)
        return self._pair_mult.get(key, 0)

    def mu_vertex(self, x: int) -> int:
        """max over z of multiplicity(x, z); 0 for isolated x."""
        self._check_vertex(x)
        return self._mu_vertex[x]

    def max_degree(self) -> int:
        return self._max_degree

    def other_end(self, e: int, x: int) -> int:
        u, v = self.endpoints[e]
        return v if x == u else u

    def neighbors(self, x: int) -> set[int]:
        self._check_vertex(x)
        return {self.other_end(e, x) for e in self.incidence[x]}

    def bipartition(self):
        """A 0/1 side per vertex with every edge crossing, or None.

        Found by breadth-first 2-coloring of the underlying simple graph;
        the result is validated against every edge before being cached.
        """
        if self._bipartition_done:
            return self._bipartition
        side = [-1] * self.n
        for root in range(self.n):
            if side[root] != -1:
                continue
            side[root] = 0
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for e in self.incidence[x]:
                    y = self.other_end(e, x)
                    if side[y] == -1:
                        side[y] = 1 - side[x]
                        queue.append(y)
        ok = all(side[u] != side[v] for u, v in self.endpoints)
        self._bipartition = side if ok else None
        self._bipartition_done = True
        return self._bipartition
