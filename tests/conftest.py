"""Shared fixtures and independent re-computation helpers.

The helpers here recompute quantities from first principles (plain scans
over the assignment) so tests never trust the engine's incremental caches
for their expected values.
"""

from __future__ import annotations

import random

import pytest

import listcolor as lc
from listcolor.lists import local_bound


def recompute_used(g, colors):
    used = [set() for _ in range(g.n)]
    for e, c in enumerate(colors):
        if c is None:
            continue
        for w in g.endpoints[e]:
            used[w].add(c)
    return used


def recompute_available(g, L, colors):
    used = recompute_used(g, colors)
    return [set(L.common[x]) - used[x] for x in range(g.n)]


def recompute_potential(g, L, colors):
    """(A, D) by definition: availability sum, degree-weighted blank count."""
    avail = recompute_available(g, L, colors)
    a = sum(len(s) for s in avail)
    d = sum(
        g.degree(x) * sum(1 for e in g.incidence[x] if colors[e] is None)
        for x in range(g.n)
    )
    return a, d


def brute_shift_ok(g, L, colors, edges):
    """Is shifting this chain proper and list-valid?  Plain simulation."""
    if colors[edges[0]] is not None:
        return False
    new = list(colors)
    for i, e in enumerate(edges):
        new[e] = colors[edges[i + 1]] if i + 1 < len(edges) else None
    for e, c in enumerate(new):
        if c is not None and c not in L.lists[e]:
            return False
    used = [set() for _ in range(g.n)]
    for e, c in enumerate(new):
        if c is None:
            continue
        for w in g.endpoints[e]:
            if c in used[w]:
                return False
            used[w].add(c)
    return True


def brute_max_prefix(g, L, colors, edges):
    best = 1
    for j in range(1, len(edges) + 1):
        if brute_shift_ok(g, L, colors, edges[:j]):
            best = j
    return best


def setup_partial(n, edge_specs):
    """Build (g, L, phi) from (u, v, color-or-None, list) tuples."""
    g = lc.Multigraph(n, [(u, v) for u, v, _, _ in edge_specs])
    L = lc.ListAssignment(g, [s for *_, s in edge_specs])
    phi = lc.PartialColoring(g, L)
    for e, (_, _, c, _) in enumerate(edge_specs):
        if c is not None:
            phi.assign(e, c)
    assert not phi.verify()
    return g, L, phi


def random_partial(g, L, rng, fill=0.6):
    """A random proper partial coloring, built through legal assigns only."""
    phi = lc.PartialColoring(g, L)
    order = list(range(g.m))
    rng.shuffle(order)
    for e in order:
        if rng.random() > fill:
            continue
        u, v = g.endpoints[e]
        legal = [
            c
            for c in sorted(L.lists[e])
            if c not in phi.used_edge[u] and c not in phi.used_edge[v]
        ]
        if legal:
            phi.assign(e, rng.choice(legal))
    return phi


def adversarial_lists(g, mode, rng, spread=4, extra=3):
    """Random supersets of per-vertex target sets meeting the mode's bound."""
    targets = []
    for x in range(g.n):
        b = local_bound(g, x, mode)
        lo = rng.randint(1, spread)
        pool = list(range(lo, lo + b + spread))
        rng.shuffle(pool)
        targets.append(frozenset(pool[:b]))
    lists = []
    for u, v in g.endpoints:
        s = set(targets[u] | targets[v])
        for _ in range(rng.randint(0, extra)):
            s.add(rng.randint(1, 40))
        lists.append(frozenset(s))
    return lc.ListAssignment(g, lists)


def random_vizing_partials(count):
    """Random partials with mu up to 3, under bound and adversarial lists."""
    for seed in range(count):
        rng = random.Random(seed)
        g = lc.generate_random(
            rng.randint(4, 10), rng.randint(2, 7), 3,
            seed=seed, edges=rng.randint(4, 24),
        )
        for L in (lc.generate_from_bounds(g, "vizing"),
                  adversarial_lists(g, "vizing", rng)):
            yield g, L, random_partial(g, L, rng, fill=rng.choice((0.5, 0.8, 0.95)))


def random_chain(g, rng, colors, max_len=6):
    """A random chain (``build_chain`` rules) from a mostly blank start edge.

    Its edges may be blank anywhere and may be parallel to one another, as
    long as consecutive edges share exactly one vertex.
    """
    blanks = [e for e, c in enumerate(colors) if c is None]
    pool = blanks if blanks and rng.random() < 0.9 else range(g.m)
    edges = [rng.choice(pool)]
    for _ in range(rng.randint(0, max_len - 1)):
        ends = set(g.endpoints[edges[-1]])
        nxt = [
            f for w in ends for f in g.incidence[w]
            if f not in edges and len(ends & set(g.endpoints[f])) == 1
        ]
        if not nxt:
            break
        edges.append(rng.choice(nxt))
    return lc.build_chain(g, edges)


FULL6 = frozenset(range(1, 7))


@pytest.fixture
def triangle():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2, 3})] * 3)
    return g, L


@pytest.fixture
def digon():
    g = lc.Multigraph(2, [(0, 1), (0, 1)])
    L = lc.ListAssignment(g, [frozenset({1, 2, 3, 4})] * 2)
    return g, L


@pytest.fixture
def rng():
    return random.Random(20240901)
