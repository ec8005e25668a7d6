"""Instance and coloring serialization, trace formatting, random instances.

Instance format (text, DIMACS-flavored):

    p edge <n> <m>
    e <u> <v> [c1 c2 ...]

Vertices are 0-based; the optional trailing integers are the edge's color
list.  Either every edge line carries a list (explicit instance) or none
does (bound-mode instance).  Lines starting with ``c`` are comments.  The
writer is canonical (lists ascending, one space between tokens), so
write-then-parse round-trips byte-identically; it refuses an empty list,
which an edge line cannot express, with ValueError.

Coloring format: exactly one line per edge, ``<edge-index> <color>`` with
``-`` for blank, in index order, and nothing else.  Numbers in both formats
are ASCII decimals.  In both formats a line ends at a newline (``\n``)
alone: other ASCII whitespace, ``\r`` included, only separates tokens,
non-ASCII whitespace such as U+00A0 is refused outside a comment, and a
comment is free text.

Trace format: one line per record, space-separated fields in fixed order:
``<step> <kind> <branch> <edge,edge,...> <A>:<D> <A>:<D>`` (potential
before and after).
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import InputError, ParseError
from .graph import Multigraph
from .lists import ListAssignment, check_sizes

MAX_VERTICES = 1_000_000
MAX_EDGES = 1_000_000  # the most edges generate_random will sample


def _check_vertex_count(n: int) -> None:
    """Refuse n past MAX_VERTICES before anything is sized by it: isolated
    vertices carry no coloring work, so such an n only allocates."""
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} above the cap {MAX_VERTICES}")


def _check_decimals(line_no: int, text: str) -> None:
    """Refuse what ``int`` would read but the formats do not: ``_`` digit
    separators, a ``+`` sign and non-ASCII digits."""
    if not text.isascii() or "_" in text or "+" in text:
        raise ParseError(line_no, "numbers must be plain ASCII decimals")


def _check_separators(line_no: int, text: str) -> None:
    """Refuse the non-ASCII whitespace that ``str.split`` would also take
    for a separator, such as U+00A0, U+0085 and U+2028."""
    if not text.isascii() and any(c.isspace() and not c.isascii() for c in text):
        raise ParseError(line_no, "tokens must be separated by ASCII whitespace")


def _lines(text: str) -> list[str]:
    """The lines of a file in either format.  ``str.splitlines`` would also
    break at form feeds, U+2028 and other marks that a comment may hold."""
    lines = text.split("\n")
    if not lines[-1]:  # the text ended with a newline, or is empty
        lines.pop()
    return lines


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
    for line_no, raw in enumerate(_lines(text), start=1):
        parts = raw.split(None, 3)  # kind, u, v and the raw list text
        # a comment's "c" follows ASCII whitespace alone
        if parts and parts[0].startswith("c") and raw[:raw.find("c")].isascii():
            continue
        _check_separators(line_no, raw)
        if not parts:
            continue
        if parts[0] == "p":
            tokens = raw.split()
            if n is not None:
                raise ParseError(line_no, "duplicate header")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(line_no, "header must be 'p edge <n> <m>'")
            _check_decimals(line_no, raw)
            try:
                n, m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError(line_no, "non-integer vertex or edge count")
            if n < 0 or m < 0:
                raise ParseError(line_no, "negative vertex or edge count")
            try:
                _check_vertex_count(n)
            except InputError as exc:
                raise ParseError(line_no, str(exc))
        elif parts[0] == "e":
            if n is None:
                raise ParseError(line_no, "edge line before header")
            if len(parts) < 3:
                raise ParseError(line_no, "edge line needs two endpoints")
            _check_decimals(line_no, raw)
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
        else:
            raise ParseError(line_no, f"unknown line type {parts[0]!r}")
    if n is None:
        raise ParseError(1, "missing 'p edge' header")
    if len(edges) != m:
        raise ParseError(line_no if edges or m else 1,
                         f"header promises {m} edges, found {len(edges)}")
    without_lists = lists.count(frozenset())
    with_lists = m - without_lists
    if with_lists and without_lists:
        raise InputError(f"{with_lists} edges carry lists, {without_lists} do not")
    g = Multigraph(n, edges)
    if with_lists:
        return g, ListAssignment(g, lists)
    return g, None


def write_instance(g: Multigraph, lists: Optional[ListAssignment] = None) -> str:
    """g as instance file text, with each edge's list when lists are given.
    Raises ValueError for lists built for a graph of another size, or for
    an empty list, which the format cannot express."""
    if lists is not None:
        check_sizes(g, lists)
    out = [f"p edge {g.n} {g.m}"]
    for e, (u, v) in enumerate(g.endpoints):
        if lists is None:
            out.append(f"e {u} {v}")
        elif not lists.lists[e]:
            raise ValueError(f"edge {e}: the format cannot express an empty list")
        else:
            colors = " ".join(str(c) for c in sorted(lists.lists[e]))
            out.append(f"e {u} {v} {colors}")
    return "\n".join(out) + "\n"


def parse_coloring(text: str, m: int) -> list[Optional[int]]:
    """Colors of edges 0..m-1 from exactly m lines ``<i> <color|->``, line i
    for edge i; ParseError names the first line off that sequence, a line
    past the m-th, or the first missing one."""
    colors: list[Optional[int]] = []
    lines = _lines(text)
    for e in range(max(m, len(lines))):
        line = lines[e] if e < len(lines) else ""
        _check_separators(e + 1, line)
        tokens = line.split()
        if e >= m or len(tokens) != 2 or tokens[0] != str(e):
            raise ParseError(e + 1, f"expected {m} lines '<i> <color|->' in index order")
        if tokens[1] == "-":
            colors.append(None)
            continue
        _check_decimals(e + 1, tokens[1])
        try:
            c = int(tokens[1])
        except ValueError:
            raise ParseError(e + 1, "color must be an integer or '-'")
        if c < 1:
            raise ParseError(e + 1, "colors must be positive integers")
        colors.append(c)
    return colors


def write_coloring(colors) -> str:
    lines = [
        f"{e} {'-' if c is None else c}" for e, c in enumerate(colors)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def format_trace_record(rec) -> str:
    """One trace line for an ``engine.TraceRecord``, in the format above."""
    chain = ",".join(map(str, rec.chain))
    (a0, d0), (a1, d1) = rec.phi_before, rec.phi_after
    return f"{rec.step} {rec.kind} {rec.branch} {chain} {a0}:{d0} {a1}:{d1}"


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
    target count (default n * max_degree // 3).  It is refused before
    sampling if more than MAX_EDGES edges could be drawn for it: the least
    of the target, n * max_degree // 2 (the degree cap) and max_multiplicity
    times the number of vertex pairs.  Sampling gives up after 50 times that
    least count + 100 draws, so the result may be smaller but never
    violates a cap.  After n * n misses in a row it also stops if the caps
    leave no vertex pair room for another edge; that scan cannot fire
    before the draw budget runs out once n * n > 50 * that count + 100,
    which holds for every n >= 25 * max_degree + 4.
    """
    if min(n, max_degree, max_multiplicity, edges or 0) < 0:
        raise InputError("counts and caps must be nonnegative")
    _check_vertex_count(n)
    if n < 2 and (edges or 0) > 0:
        raise InputError("need at least two vertices to place edges")
    if edges is not None and edges > 0 and (max_degree < 1 or max_multiplicity < 1):
        raise InputError("caps of zero cannot accommodate edges")
    target = edges if edges is not None else n * max_degree // 3
    pairs = (n + 1) // 2 * (n // 2) if bipartite else n * (n - 1) // 2
    reachable = min(target, n * max_degree // 2, pairs * max_multiplicity)
    if reachable > MAX_EDGES:
        raise InputError(f"edge target {reachable} above the cap {MAX_EDGES}")
    rng = random.Random(seed)
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
    cap = 50 * max(reachable, 1) + 100
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
