"""Instance and coloring serialization, trace formatting, random instances.

Instance format (text, DIMACS-flavored):

    p edge <n> <m>
    e <u> <v> [c1 c2 ...]

Vertices are 0-based; the optional trailing integers are the edge's color
list.  Either every edge line carries a list (explicit instance) or none
does (bound-mode instance).  Lines starting with ``c`` are comments.  The
writer is canonical (lists ascending, one space between tokens), so
write-then-parse round-trips byte-identically.

Coloring format: one line per edge, ``<edge-index> <color>`` with ``-``
for blank, in index order.

Trace format: one line per record, space-separated fields in fixed order:
``<step> <kind> <branch> <edge,edge,...> <A>:<D> <A>:<D>`` (potential
before and after).
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import (
    InfeasibleParamsError,
    MixedListPresenceError,
    ParseError,
)
from .graph import Multigraph
from .lists import ListAssignment


def parse_instance(text: str) -> tuple[Multigraph, Optional[ListAssignment]]:
    """Graph and, for an explicit instance, its lists.

    Each distinct list text is converted and checked once; every edge line
    that carries the same text shares one frozenset.
    """
    n = m = None
    line_no = 0
    edges: list[tuple[int, int]] = []
    lists: list[frozenset[int]] = []
    shared: dict[str, frozenset[int]] = {}  # list text -> its checked set
    with_lists = without_lists = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split(None, 3)  # kind, u, v and the raw list text
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            tokens = raw.split()
            if n is not None:
                raise ParseError(line_no, "duplicate header")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(line_no, "header must be 'p edge <n> <m>'")
            try:
                n, m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(line_no, "non-integer vertex or edge count")
            if n < 0 or m < 0:
                raise ParseError(line_no, "negative vertex or edge count")
        elif parts[0] == "e":
            if n is None:
                raise ParseError(line_no, "edge line before header")
            if len(parts) < 3:
                raise ParseError(line_no, "edge line needs two endpoints")
            tail = parts[3] if len(parts) == 4 else ""
            colors = shared.get(tail)
            try:
                u, v = int(parts[1]), int(parts[2])
                fresh = colors is None
                if fresh:
                    colors = frozenset(map(int, tail.split()))
            except ValueError:
                raise ParseError(line_no, "non-integer token on edge line")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(line_no, f"vertex out of range [0, {n})")
            if u == v:
                raise ParseError(line_no, f"loop edge at vertex {u}")
            if fresh:
                if colors and min(colors) < 1:
                    raise ParseError(line_no, "colors must be positive integers")
                shared[tail] = colors  # only a checked text is shared
            edges.append((u, v))
            lists.append(colors)
            if colors:
                with_lists += 1
            else:
                without_lists += 1
        else:
            raise ParseError(line_no, f"unknown line type {parts[0]!r}")
    if n is None:
        raise ParseError(1, "missing 'p edge' header")
    if len(edges) != m:
        raise ParseError(line_no if edges or m else 1,
                         f"header promises {m} edges, found {len(edges)}")
    if with_lists and without_lists:
        raise MixedListPresenceError(
            f"{with_lists} edges carry lists, {without_lists} do not"
        )
    g = Multigraph(n, edges)
    if with_lists:
        return g, ListAssignment(g, lists)
    return g, None


def write_instance(g: Multigraph, lists: Optional[ListAssignment] = None) -> str:
    out = [f"p edge {g.n} {g.m}"]
    for e, (u, v) in enumerate(g.endpoints):
        if lists is None:
            out.append(f"e {u} {v}")
        else:
            colors = " ".join(str(c) for c in sorted(lists.lists[e]))
            out.append(f"e {u} {v} {colors}")
    return "\n".join(out) + "\n"


def parse_coloring(text: str, m: int) -> list[Optional[int]]:
    colors: list[Optional[int]] = [None] * m
    seen = [False] * m
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(line_no, "expected '<edge-index> <color|->'")
        try:
            e = int(tokens[0])
        except ValueError:
            raise ParseError(line_no, "non-integer edge index")
        if not 0 <= e < m:
            raise ParseError(line_no, f"edge index out of range [0, {m})")
        if seen[e]:
            raise ParseError(line_no, f"duplicate line for edge {e}")
        seen[e] = True
        if tokens[1] == "-":
            colors[e] = None
        else:
            try:
                c = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, "color must be an integer or '-'")
            if c < 1:
                raise ParseError(line_no, "colors must be positive integers")
            colors[e] = c
    if not all(seen):
        missing = seen.index(False)
        raise ParseError(max(line_no, 1), f"no line for edge {missing}")
    return colors


def write_coloring(colors) -> str:
    lines = [
        f"{e} {'-' if c is None else c}" for e, c in enumerate(colors)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def format_trace_record(rec) -> str:
    """One trace line for an ``engine.TraceRecord``, in the format above."""
    chain = ",".join(str(e) for e in rec.chain)
    return (
        f"{rec.step} {rec.kind} {rec.branch} {chain} "
        f"{rec.phi_before.a}:{rec.phi_before.d} {rec.phi_after.a}:{rec.phi_after.d}"
    )


def generate_random(
    n: int,
    max_degree: int,
    max_multiplicity: int,
    bipartite: bool = False,
    seed: int = 0,
    edges: Optional[int] = None,
) -> Multigraph:
    """Deterministic random multigraph respecting degree and multiplicity caps.

    Vertices split into even/odd sides when ``bipartite``.  ``edges`` is a
    target count (default n * max_degree // 3).  Sampling gives up after
    50 * target + 100 draws, and stops as soon as the caps leave no vertex
    pair room for another edge, so the result may be smaller but never
    violates a cap.
    """
    if min(n, max_degree, max_multiplicity, edges or 0) < 0:
        raise InfeasibleParamsError("counts and caps must be nonnegative")
    if n < 2 and (edges or 0) > 0:
        raise InfeasibleParamsError("need at least two vertices to place edges")
    if edges is not None and edges > 0 and (max_degree < 1 or max_multiplicity < 1):
        raise InfeasibleParamsError("caps of zero cannot accommodate edges")
    rng = random.Random(seed)
    target = edges if edges is not None else n * max_degree // 3
    deg = [0] * n
    mult: dict[tuple[int, int], int] = {}
    chosen: list[tuple[int, int]] = []

    def fits(u, v):
        return (
            u != v
            and not (bipartite and u % 2 == v % 2)
            and deg[u] < max_degree
            and deg[v] < max_degree
            and mult.get((u, v) if u < v else (v, u), 0) < max_multiplicity
        )

    attempts = misses = 0
    cap = 50 * max(target, 1) + 100
    while len(chosen) < target and attempts < cap:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if not fits(u, v):
            misses += 1
            if misses == n * n:  # that many misses in a row: is any pair left?
                if not any(fits(a, b) for a in range(n) for b in range(a + 1, n)):
                    break
                misses = 0
            continue
        misses = 0
        key = (u, v) if u < v else (v, u)
        mult[key] = mult.get(key, 0) + 1
        deg[u] += 1
        deg[v] += 1
        chosen.append((u, v))
    return Multigraph(n, chosen)
