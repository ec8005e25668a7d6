"""Output checks that share no code with the program under test.

Everything here works from the benchmark's own ``Instance`` objects and
from the program's documented text formats, and imports nothing from
listcolor: a defect in the program's bookkeeping, verifier or writers
cannot hide itself from these checks.
"""

from __future__ import annotations

import hashlib

from inputs import Instance, local_bounds


def check_coloring(inst: Instance, colors) -> list[str]:
    """Problems with a total coloring of ``inst``; empty when it is correct.

    Every edge must be colored, no two edges at a vertex may share a color,
    and each color must lie in its edge's list.  For a bound-mode instance
    the list is {1..max(bound(u), bound(v))} with the bound recomputed from
    the edge list, so this is also the color-range check.
    """
    if len(colors) != inst.m:
        return [f"{len(colors)} colors for {inst.m} edges"]
    problems = []
    bounds = None if inst.lists is not None else local_bounds(
        inst.n, inst.edges, inst.mode
    )
    seen: list[dict[int, int]] = [{} for _ in range(inst.n)]
    for e, ((u, v), c) in enumerate(zip(inst.edges, colors)):
        if c is None:
            problems.append(f"edge {e} is blank")
            continue
        if bounds is None:
            if c not in inst.lists[e]:
                problems.append(f"edge {e} colored {c} outside its list")
        elif not 1 <= c <= max(bounds[u], bounds[v]):
            problems.append(f"edge {e} colored {c} outside 1..{max(bounds[u], bounds[v])}")
        for w in (u, v):
            f = seen[w].setdefault(c, e)
            if f != e:
                problems.append(f"edges {f} and {e} share color {c} at vertex {w}")
    return problems


def parse_coloring_text(text: str, m: int) -> list:
    """Color vector from the ``<edge-index> <color|->`` format."""
    colors: list = [None] * m
    seen = [False] * m
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("c"):
            continue
        if len(tokens) != 2:
            raise ValueError(f"bad coloring line {line!r}")
        e = int(tokens[0])
        if not 0 <= e < m or seen[e]:
            raise ValueError(f"bad or repeated edge index {e}")
        seen[e] = True
        colors[e] = None if tokens[1] == "-" else int(tokens[1])
    if not all(seen):
        raise ValueError(f"no line for edge {seen.index(False)}")
    return colors


def trace_counters(text: str, m: int) -> dict:
    """Run counters recomputed from the documented trace format.

    One record per shift event: ``<step> <kind> <branch> <edges> <A>:<D>
    <A>:<D>``.  A step's records share its step number; a successful run
    has exactly m happy steps, so the rest are content steps.
    """
    steps = set()
    fan = path = max_chain = 0
    for line in text.splitlines():
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"bad trace line {line!r}")
        steps.add(int(fields[0]))
        if fields[1] == "fan-shift":
            fan += 1
        elif fields[1].startswith("path-shift"):
            path += 1
        max_chain = max(max_chain, len(fields[3].split(",")))
    return counters(len(steps), len(steps) - m, fan, path, max_chain)


def counters(steps, content_steps, fan_shifts, path_shifts, max_chain) -> dict:
    return {
        "steps": steps,
        "content_steps": content_steps,
        "fan_shifts": fan_shifts,
        "path_shifts": path_shifts,
        "max_chain": max_chain,
    }


def coloring_digest(colors) -> str:
    """Short stable digest of a color vector, for the golden corpus."""
    text = ",".join("-" if c is None else str(c) for c in colors)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
