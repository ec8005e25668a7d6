"""Loopless multigraph with stable edge identities.

Edges are numbered by their position in the input list, so parallel edges
are distinct objects; chains are sequences of edge ids and rely on that.
Instances are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from collections import deque

from .errors import InputError

_UNKNOWN = object()  # the bipartition before its first search


class Multigraph:
    """An undirected loopless multigraph on vertices ``0..n-1``.

    ``endpoints[e]`` is the (u, v) pair of edge ``e`` in input order, the
    caller's own object when it passed a tuple, and ``incidence[x]`` lists
    the edge ids incident to ``x``.
    """

    __slots__ = (
        "n",
        "m",
        "endpoints",
        "incidence",
        "_mu_vertex",
        "_max_degree",
        "_bipartition",
    )

    def __init__(self, n: int, edge_list):
        if type(n) is not int:  # bool is an int subclass
            raise InputError(f"vertex count {n!r} is not an int")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        endpoints = []
        incidence = [[] for _ in range(n)]
        pair_mult: dict[tuple[int, int], int] = {}
        for e, pair in enumerate(edge_list):
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise InputError(f"edge {e} is not a vertex pair: {pair!r}") from None
            for w in (u, v):
                if type(w) is not int:  # bool is an int subclass
                    raise InputError(f"vertex {w!r} is not an int")
                if not 0 <= w < n:
                    raise InputError(f"vertex {w} out of range [0, {n})")
            if u == v:
                raise InputError(f"loop edge at vertex {u}")
            if type(pair) is not tuple:  # keep the caller's own tuple
                pair = (u, v)
            endpoints.append(pair)
            incidence[u].append(e)
            incidence[v].append(e)
            key = pair if u < v else (v, u)
            pair_mult[key] = pair_mult.get(key, 0) + 1
        self.m = len(endpoints)
        self.endpoints = tuple(endpoints)
        self.incidence = tuple(tuple(es) for es in incidence)
        mu = [0] * n
        for (u, v), k in pair_mult.items():
            if k > mu[u]:
                mu[u] = k
            if k > mu[v]:
                mu[v] = k
        self._mu_vertex = tuple(mu)
        self._max_degree = max((len(es) for es in self.incidence), default=0)
        self._bipartition = _UNKNOWN

    def _check_vertex(self, x: int) -> None:
        if type(x) is not int:  # bool is an int subclass
            raise InputError(f"vertex {x!r} is not an int")
        if not 0 <= x < self.n:
            raise InputError(f"vertex {x} out of range [0, {self.n})")

    def degree(self, x: int) -> int:
        self._check_vertex(x)
        return len(self.incidence[x])

    def mu_vertex(self, x: int) -> int:
        """Most parallel edges x shares with one neighbour; 0 for isolated x."""
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
        if self._bipartition is not _UNKNOWN:
            return self._bipartition
        endpoints, incidence = self.endpoints, self.incidence
        side = [-1] * self.n
        for root, inc in enumerate(incidence):
            if side[root] != -1:
                continue
            side[root] = 0
            if not inc:  # nothing to walk from a vertex without edges
                continue
            queue = deque([root])
            while queue:
                x = queue.popleft()
                sy = 1 - side[x]
                for e in incidence[x]:
                    u, y = endpoints[e]
                    if y == x:
                        y = u
                    if side[y] == -1:
                        side[y] = sy
                        queue.append(y)
        ok = all(side[u] != side[v] for u, v in endpoints)
        self._bipartition = side if ok else None
        return self._bipartition
