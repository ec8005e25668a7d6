"""Shared fixtures and independent re-computation helpers.

The helpers here recompute quantities from first principles (plain scans
over the assignment) so tests never trust the engine's incremental caches
for their expected values.
"""

from __future__ import annotations

import functools
import random
import sys

import pytest

import listcolor as lc
from listcolor import engine
from listcolor.errors import (
    COLOR_CLASH,
    COLOR_NOT_IN_LIST,
    START_NOT_BLANK,
    NotShiftableError,
)
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


def shifted_colors(colors, edges):
    """The color vector after shifting the chain: each edge takes the next
    edge's color and the last goes blank."""
    new = list(colors)
    for i, e in enumerate(edges):
        new[e] = colors[edges[i + 1]] if i + 1 < len(edges) else None
    return new


def blank_edges(phi):
    """The blank edges of a coloring, in id order, read off its colors."""
    return [e for e, c in enumerate(phi.color) if c is None]


def rebuilt(phi):
    """A fresh coloring with phi's colors, built by assigning each one."""
    new = lc.PartialColoring(phi.g, phi.lists)
    for e, c in enumerate(phi.color):
        if c is not None:
            new.assign(e, c)
    return new


def shifted_copy(phi, chain):
    """A fresh coloring with the chain shifted; phi is untouched."""
    new = rebuilt(phi)
    new.apply_chain_shift(new.check_shift(chain.edges))
    return new


def shift_change(g, L, colors, edges):
    """Potential change (da, dd) of shifting the chain, by definition."""
    a0, d0 = recompute_potential(g, L, colors)
    a1, d1 = recompute_potential(g, L, shifted_colors(colors, edges))
    return a1 - a0, d1 - d0


def brute_shift_ok(g, L, colors, edges):
    """Is shifting this chain proper and list-valid?  Plain simulation."""
    if colors[edges[0]] is not None:
        return False
    new = shifted_colors(colors, edges)
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


def reference_violation(phi, edges, targets):
    """The shift check as a plain scan: first (index, reason), else (None, None)."""
    eset = set(edges)
    seen = set()
    for i, (e, c) in enumerate(zip(edges, targets)):
        if c is None:
            continue
        if c not in phi.lists.lists[e]:
            return i, COLOR_NOT_IN_LIST
        for w in phi.g.endpoints[e]:
            if (w, c) in seen:
                return i, COLOR_CLASH
            seen.add((w, c))
            f = phi.used_edge[w].get(c)
            if f is not None and f not in eset:
                return i, COLOR_CLASH
    return None, None


def replay_shift(phi, edges):
    """The shift replayed edge by edge: unassign every colored chain edge,
    then assign every target.  Raises NotShiftableError as a refused
    shift does, before touching ``phi``."""
    old = [phi.color[e] for e in edges]
    if old[0] is not None:
        raise NotShiftableError(0, START_NOT_BLANK)
    targets = old[1:] + [None]
    i, reason = reference_violation(phi, edges, targets)
    if i is not None:
        raise NotShiftableError(i, reason)
    for e, c in zip(edges, old):
        if c is not None:
            phi.unassign(e)
    for e, c in zip(edges, targets):
        if c is not None:
            phi.assign(e, c)
    return tuple(old)


def brute_max_prefix(g, L, colors, edges):
    best = 1
    for j in range(1, len(edges) + 1):
        if brute_shift_ok(g, L, colors, edges[:j]):
            best = j
    return best


# (has a shift, has a path, happy) -> the kind of step a classifier returned
STEP_KINDS = {
    (False, False, True): "happy-edge",
    (True, False, True): "happy-fan",
    (True, False, False): "content-fan",
    (False, True, False): "path-phi",
    (True, True, False): "path-psi",
}


def step_kind(out):
    """The kind of a classifier's step; KeyError for a combination no
    classifier may return."""
    return STEP_KINDS[out.shift is not None, out.path is not None, out.happy]


class ShiftLog:
    """Counts shift checks and commits while ``engine.augment_once`` runs.

    Records the chain of every ``PartialColoring.shift_violation`` call in
    a step and fails the step if it checked one chain twice.
    """

    def __init__(self, monkeypatch):
        self.checks = self.commits = 0
        self.step = []
        check = lc.PartialColoring.shift_violation
        commit = lc.PartialColoring.apply_chain_shift
        augment = engine.augment_once

        def counted_check(phi, edges, *args):
            self.step.append(tuple(edges))
            return check(phi, edges, *args)

        def counted_commit(phi, *args):
            self.commits += 1
            return commit(phi, *args)

        def one_step(*args, **kwargs):
            self.step = []
            left = augment(*args, **kwargs)
            assert len(set(self.step)) == len(self.step), self.step
            self.checks += len(self.step)
            return left

        monkeypatch.setattr(lc.PartialColoring, "shift_violation", counted_check)
        monkeypatch.setattr(lc.PartialColoring, "apply_chain_shift", counted_commit)
        monkeypatch.setattr(engine, "augment_once", one_step)


def _fan_leaves(phi, fan):
    """Availability entries at a fan's leaves, one term per leaf position."""
    return sum(len(phi.available[z]) for z in fan.vertices[1:])


# layer boundary -> the work one call did, from (result, *args)
WORK = {
    "is_happy": lambda _, phi, e: sum(len(phi.available[w]) for w in phi.g.endpoints[e]),
    "assign": lambda *_: 1,
    "shift_violation": lambda _, phi, edges, *rest: len(edges),
    "apply_chain_shift": lambda _, phi, shift: len(shift.edges),
    "alternating_path": lambda path, *_: len(path.edges),
    "max_shiftable_prefix": lambda _, phi, path: len(path.edges),
    "vizing_fan": lambda res, phi, *_: _fan_leaves(phi, res.fan),
    "shannon_fan": lambda fan, phi, *_: _fan_leaves(phi, fan),
}


class WorkLog:
    """Counts the work of each ``engine.augment_once`` step at layer boundaries.

    A step's count adds, per call made inside it: the availability entries
    at both ends that ``is_happy`` reads, one per ``assign``, the edges of
    every checked shift, committed shift, walked alternating path and
    prefix search, and the availability entries at every leaf of each fan
    built.  ``steps`` holds one count per finished step.  Module-level
    functions are patched in every listcolor module that imported them by
    name, methods on ``PartialColoring``.
    """

    def __init__(self, monkeypatch):
        self.steps = []
        self.count = 0
        augment = engine.augment_once

        def counted(fn, cost):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.count += cost(result, *args)
                return result

            return wrapper

        def one_step(*args, **kwargs):
            self.count = 0
            left = augment(*args, **kwargs)
            self.steps.append(self.count)
            return left

        modules = [m for name, m in sys.modules.items()
                   if name == "listcolor" or name.startswith("listcolor.")]
        for name, cost in WORK.items():
            method = getattr(lc.PartialColoring, name, None)
            if method is not None:
                monkeypatch.setattr(lc.PartialColoring, name, counted(method, cost))
                continue
            fn = getattr(lc, name)
            wrapped = counted(fn, cost)
            for mod in modules:
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, wrapped)
        monkeypatch.setattr(engine, "augment_once", one_step)


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
    """A random bare chain from a mostly blank start edge.

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
    return lc.Chain(tuple(edges))


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
