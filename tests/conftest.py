"""Shared fixtures and independent re-computation helpers.

The helpers here recompute quantities from first principles (plain scans
over the assignment) so tests never trust the engine's incremental caches
for their expected values: no expected value comes from a
``PartialColoring``.  Each run property has one check, which takes
``(g, L, colors)`` or trace records:

- the run certificate: ``check_certificate``, over a traced run's records;
- the oracle cross-check: ``oracle_cross_check``, which acceptance
  criterion 6 runs over the union of its own instance families and
  ``oracle_bound_instances`` and ``oracle_list_instances``;
- the chain shift: ``reference_shift``, for the shift
  ``PartialColoring.check_shift`` checks (``shift_answer`` puts its answer
  in the reference's terms);
- the Vizing fan: ``reference_vizing_fan``, for the fan ``vizing_fan``
  builds;
- the alternating path: ``reference_path``, for the walk
  ``alternating_path`` makes, in phi or in a shifted color vector;
- the local bound: ``reference_bound``, for the bound ``check_bound``
  and ``generate_from_bounds`` apply at each vertex;
- the table a kept colour set sits in: ``assert_smaller_table``, against
  both tables CPython can give its value.

``StepLog`` groups the calls a repair step makes at layer boundaries, for
the per-step shift rules and the work counts of acceptance criterion 9.

``available`` and ``live_state`` read a coloring's caches only to compare
one coloring's state with another's.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
from collections import Counter
from dataclasses import dataclass, field

import pytest

import listcolor as lc
from listcolor import engine
from listcolor.chain import Chain
from listcolor.errors import (
    COLOR_CLASH,
    COLOR_NOT_IN_LIST,
    START_NOT_BLANK,
    BoundViolationError,
    InternalAssertionError,
    NotShiftableError,
    PreconditionViolatedError,
)


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


def available(phi, x):
    """The colors available at x in phi, decoded from its masks to a set."""
    mask = phi.common_mask[x] & ~phi.used_mask[x]
    return {c for c in phi.palette[x] if mask >> phi.rank[x][c] & 1}


def live_state(phi):
    """Everything a mutation could change: colors, used maps, availability,
    potential and blank count."""
    return (
        list(phi.color),
        [dict(d) for d in phi.used_edge],
        [available(phi, x) for x in range(phi.g.n)],
        phi.potential(),
        phi.blanks,
    )


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


def multiplicities(g):
    """Parallel-edge count per unordered vertex pair, read off the endpoints."""
    mult = {}
    for u, v in g.endpoints:
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + 1
    return mult


def reference_bound(g, x, mode):
    """The mode's common-color count at vertex x by definition:
    floor(3 deg / 2), deg + mu or deg."""
    d = g.degree(x)
    return {"shannon": 3 * d // 2, "vizing": d + g.mu_vertex(x), "koenig": d}[mode]


def assert_smaller_table(s):
    """s takes no more room than either table CPython can give its value:
    grown one colour at a time, or sized once for its count."""
    grown = frozenset(iter(sorted(s)))
    once = frozenset(set(grown))
    assert sys.getsizeof(s) <= min(sys.getsizeof(grown), sys.getsizeof(once)), len(s)


def blank_edges(phi):
    """The blank edges of a coloring, in id order, read off its colors."""
    return [e for e, c in enumerate(phi.color) if c is None]


def rebuilt(phi, colors=None):
    """A fresh coloring of phi's graph and lists, built by assigning each
    color of ``colors``, phi's own by default."""
    new = lc.PartialColoring(phi.g, phi.lists)
    for e, c in enumerate(phi.color if colors is None else colors):
        if c is not None:
            new.assign(e, c)
    return new


def shift_change(g, L, colors, edges):
    """Potential change (da, dd) of shifting the chain, by definition."""
    a0, d0 = recompute_potential(g, L, colors)
    a1, d1 = recompute_potential(g, L, shifted_colors(colors, edges))
    return a1 - a0, d1 - d0


def reference_shift(g, L, colors, edges):
    """The shift of a chain by definition: the shifted color list, or the
    refusal ``check_shift`` must raise, as (class, index, reason).

    Refusals come in the order ``check_shift`` documents: a chain that is
    empty, repeats an edge or has a blank edge after its start; then a
    colored start edge; then the first edge i whose new color, the old
    color of edge i + 1, is outside its list or already at one of its ends,
    on an edge off the chain or on an earlier chain edge.
    """
    old = [colors[e] for e in edges]
    if not edges or len(set(edges)) < len(edges) or None in old[1:]:
        return PreconditionViolatedError, None, None
    if old[0] is not None:
        return NotShiftableError, 0, START_NOT_BLANK
    on_chain = set(edges)
    off_chain = recompute_used(
        g, [None if e in on_chain else c for e, c in enumerate(colors)])
    taken = set()  # (vertex, color) given to an earlier chain edge
    for i, (e, c) in enumerate(zip(edges, old[1:])):
        if c not in L.lists[e]:
            return NotShiftableError, i, COLOR_NOT_IN_LIST
        for w in g.endpoints[e]:
            if c in off_chain[w] or (w, c) in taken:
                return NotShiftableError, i, COLOR_CLASH
            taken.add((w, c))
    return shifted_colors(colors, edges)


def shift_answer(phi, edges):
    """What ``phi.check_shift`` answers, in ``reference_shift``'s terms: the
    shift, or the refusal as (class, index, reason)."""
    try:
        return phi.check_shift(edges)
    except (PreconditionViolatedError, NotShiftableError) as exc:
        return type(exc), getattr(exc, "index", None), getattr(exc, "reason", None)


def brute_max_prefix(g, L, colors, edges):
    """The longest prefix of a chain that ``reference_shift`` shifts."""
    return max(j for j in range(1, len(edges) + 1)
               if isinstance(reference_shift(g, L, colors, edges[:j]), list))


def reference_path(g, L, colors, e, alpha, beta):
    """The alternating path out of blank edge e by definition: the ``Chain``,
    or the refusal ``alternating_path`` must raise, as (class, message).

    The start vertex is the endpoint where alpha is available, u before v
    when both orientations fit; the walk leaves the other endpoint along
    its alpha edge and alternates beta, alpha, ... while the next color is
    at the vertex reached.  ``colors`` is proper, so each color is at a
    vertex at most once and the walk never comes back on itself.
    """
    if alpha == beta:
        return PreconditionViolatedError, "alternating colors must differ"
    if colors[e] is not None:
        return PreconditionViolatedError, f"edge {e} is not blank"
    avail = recompute_available(g, L, colors)
    u, v = g.endpoints[e]
    ends = [(x, y) for x, y in ((u, v), (v, u)) if alpha in avail[x] and beta in avail[y]]
    if not ends:
        return (PreconditionViolatedError,
                f"edge {e}: colors {alpha}, {beta} not available at opposite endpoints")
    edges, vertices = [e], list(ends[0])
    need, follow = alpha, beta
    while nxt := [f for f in g.incidence[vertices[-1]] if colors[f] == need]:
        edges.append(nxt[0])
        vertices.append(g.other_end(nxt[0], vertices[-1]))
        need, follow = follow, need
    return Chain(tuple(edges), tuple(vertices))


def reference_vizing_fan(g, L, colors, e, x):
    """The fan loop on sets, and how often it polled each leaf.

    The k-th poll of a leaf takes its k-th smallest available color.
    Returns ``(outcome, polls)``: the outcome is ``vizing_fan``'s triple,
    or the class and message of the InternalAssertionError it must raise.
    """
    avail = recompute_available(g, L, colors)
    at_x = {colors[f]: f for f in g.incidence[x] if colors[f] is not None}
    polls = Counter()
    index = {e: 0}
    edges = [e]
    vertices = [x, g.other_end(e, x)]
    for k in range(len(g.incidence[x])):
        z = vertices[-1]
        ranked = sorted(avail[z])
        if polls[z] == len(ranked):
            return (InternalAssertionError, f"working set of leaf {z} ran out"), polls
        eta = ranked[polls[z]]
        polls[z] += 1
        ek = at_x.get(eta)
        if ek is None or ek in index:  # happy, or closing onto index j
            j = k + 1 if ek is None else index[ek]
            return (Chain(tuple(edges), tuple(vertices)), eta, j), polls
        index[ek] = k + 1
        edges.append(ek)
        vertices.append(g.other_end(ek, x))
    return (InternalAssertionError, "fan construction exhausted the pivot's degree"), polls


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
    _, shift, path, happy = out
    return STEP_KINDS[shift is not None, path is not None, happy]


class Miscounted(lc.PartialColoring):
    """A coloring whose blank count starts one too high: every step moves it
    by the right amount, so only the final verify can see it."""

    __slots__ = ()

    def __init__(self, g, lists):
        super().__init__(g, lists)
        self.blanks += 1


def trace_counters(records, colored):
    """The ``RunStats`` a traced run must end with, recomputed from its
    records alone.  ``colored`` is how many edges the run colored, one per
    happy step, so every other step is content."""
    kinds = Counter(r.kind for r in records)
    steps = len({r.step for r in records})
    return lc.RunStats(
        happy_steps=colored,
        content_steps=steps - colored,
        fan_shifts=kinds["fan-shift"],
        path_shifts=kinds["path-shift-happy"] + kinds["path-shift-content"],
        max_chain_length=max((len(r.chain) for r in records), default=0),
    )


# the four kinds of trace record README names
TRACE_KINDS = {"happy-edge", "fan-shift", "path-shift-happy", "path-shift-content"}


def check_certificate(g, L, records, stats, colors, start=None):
    """Assert that a traced run's records certify it.

    ``start`` is the color vector the run began from, blank by default,
    and ``colors`` the one it ended with.  Each record is of one of the
    ``TRACE_KINDS`` and names a non-empty chain.  The records number the
    steps 0, 1, ... in order; each record starts at the potential the
    previous one ended at, the first at ``start``'s, inside a step too;
    each step ends strictly below where it started, and the last at
    ``colors``'s potential.  ``stats`` counts those steps and equals
    ``trace_counters``.
    """
    start = [None] * g.m if start is None else start
    for r in records:
        assert r.kind in TRACE_KINDS and r.chain, r
    pot, steps = recompute_potential(g, L, start), 0
    for step, recs in itertools.groupby(records, lambda r: r.step):
        assert step == steps, (step, steps)
        opened = pot
        for r in recs:
            assert r.phi_before == pot, (pot, r)
            pot = r.phi_after
        assert pot < opened, (step, opened, pot)
        steps += 1
    assert pot == recompute_potential(g, L, colors), (pot, steps)
    assert steps == stats.steps, (steps, stats)
    assert stats == trace_counters(records, start.count(None) - colors.count(None))


def oracle_cross_check(bound_instances, list_instances):
    """Cross-check the engine with the exhaustive oracle.

    ``bound_instances`` yields ``(g, L, mode, assume)`` whose lists meet
    the bound ``assume or mode``; on each, the engine's run and the
    oracle's coloring must both be complete and proper.  ``list_instances``
    yields ``(g, L)`` under arbitrary lists; wherever the oracle finds no
    coloring, every mode's bound check must fail.  Returns ``(agree,
    feasible, absent)``: the bound instances on which both were proper,
    the bound instances, and the list instances with no coloring.
    """
    agree = feasible = 0
    for g, L, mode, assume in bound_instances:
        lc.check_bound(g, L, assume or mode)
        oracle = lc.exhaustive_color(g, L, limit=9)
        phi, _ = lc.color_graph(g, L, mode, assume_bound=assume)
        engine_ok = not phi.blanks and not lc.check_edge_colors(g, L, phi.color)
        oracle_ok = oracle is not None and not lc.check_edge_colors(g, L, oracle)
        agree += engine_ok and oracle_ok
        feasible += 1
    # one-directional converse: oracle absence implies every bound failed
    absent = 0
    for g, L in list_instances:
        if lc.exhaustive_color(g, L, limit=9) is None:
            absent += 1
            modes = ["shannon", "vizing"] + (["koenig"] if g.bipartition() else [])
            for m in modes:
                with pytest.raises(BoundViolationError):
                    lc.check_bound(g, L, m)
    return agree, feasible, absent


def oracle_bound_instances():
    """Graphs on six vertices with Delta 4 under both modes' bound lists,
    where the oracle backtracks."""
    for seed in range(60):
        rng = random.Random(seed)
        g = lc.generate_random(6, 4, 2, seed=seed, edges=rng.randint(1, 8))
        for mode in ("shannon", "vizing"):
            yield g, lc.generate_from_bounds(g, mode), mode, None


def oracle_list_instances(rng=None, seeds=range(80)):
    """Graphs on five vertices under random lists of one to three colors
    from 1..5, often with no proper coloring at all."""
    rng = random.Random(5) if rng is None else rng
    for seed in seeds:
        g = lc.generate_random(5, 4, 2, seed=seed, edges=rng.randint(2, 7))
        if g.m:
            lists = [frozenset(rng.sample(range(1, 6), rng.randint(1, 3)))
                     for _ in range(g.m)]
            yield g, lc.ListAssignment(g, lists)


def _fan_leaves(phi, fan):
    """Availability entries at a fan's leaves, one term per leaf position."""
    return sum(phi.available_mask(z).bit_count() for z in fan.vertices[1:])


# layer boundary -> the work one call did, from (result, *args): the
# availability entries ``is_happy`` reads at both ends, one per ``assign``,
# the edges of each checked shift, committed shift, walked path and prefix
# search, and the availability entries at each fan leaf
WORK = {
    "is_happy": lambda _, phi, e: sum(phi.available_mask(w).bit_count()
                                      for w in phi.g.endpoints[e]),
    "assign": lambda *_: 1,
    "shift_violation": lambda _, phi, edges, *rest: len(edges),
    "apply_chain_shift": lambda _, phi, shift: len(shift.edges),
    "alternating_path": lambda path, *_: len(path.edges),
    "max_shiftable_prefix": lambda _, phi, path: len(path.edges),
    "vizing_fan": lambda res, phi, *_: _fan_leaves(phi, res[0]),
    "shannon_fan": lambda fan, phi, *_: _fan_leaves(phi, fan),
}


@dataclass
class Step:
    """One ``engine.augment_once`` step's calls at the ``WORK`` boundaries."""

    checked: list = field(default_factory=list)
    committed: list = field(default_factory=list)
    work: int = 0


class StepLog:
    """Logs each ``engine.augment_once`` step's calls at the ``WORK`` boundaries.

    ``steps`` holds one ``Step`` per step, in order: ``checked`` and
    ``committed`` are the chains passed to ``PartialColoring.shift_violation``
    and ``PartialColoring.apply_chain_shift``, in call order, and ``work``
    adds up each call's ``WORK`` count.  Calls outside a step are not logged.
    A step fails if it checked or committed one chain twice, committed a
    chain it did not check, or let a one-edge chain reach either call: such
    a chain moves no color.  Module-level functions are patched in every
    listcolor module that holds them, methods on ``PartialColoring``.
    """

    def __init__(self, monkeypatch):
        self.steps = []
        self.open = None  # the step under way
        augment = engine.augment_once

        def logged(fn, name):
            cost = WORK[name]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                step = self.open
                if step is not None:
                    step.work += cost(result, *args)
                    if name == "shift_violation":
                        step.checked.append(tuple(args[1]))
                    elif name == "apply_chain_shift":
                        step.committed.append(args[1].edges)
                return result

            return wrapper

        def one_step(*args, **kwargs):
            self.open = step = Step()
            self.steps.append(step)
            left = augment(*args, **kwargs)
            self.open = None
            assert len(set(step.checked)) == len(step.checked), step
            assert len(set(step.committed)) == len(step.committed), step
            assert set(step.committed) <= set(step.checked), step
            assert min(map(len, step.checked), default=2) > 1, step
            return left

        modules = [m for name, m in sys.modules.items()
                   if name == "listcolor" or name.startswith("listcolor.")]
        for name in WORK:
            method = getattr(lc.PartialColoring, name, None)
            if method is not None:
                monkeypatch.setattr(lc.PartialColoring, name, logged(method, name))
                continue
            fn = next(getattr(m, name) for m in modules if hasattr(m, name))
            wrapped = logged(fn, name)
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
        b = reference_bound(g, x, mode)
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


def random_chain(g, rng, colors, max_len=6, later_blanks=False):
    """The edges of a random chain from a mostly blank start edge.

    Every edge after the start is colored, unless ``later_blanks`` lets
    them be blank too, a shape ``check_shift`` refuses.  Edges may be
    parallel to one another, as long as consecutive edges share exactly
    one vertex.
    """
    blanks = [e for e, c in enumerate(colors) if c is None]
    pool = blanks if blanks and rng.random() < 0.9 else range(g.m)
    edges = [rng.choice(pool)]
    for _ in range(rng.randint(0, max_len - 1)):
        ends = set(g.endpoints[edges[-1]])
        nxt = [
            f for w in ends for f in g.incidence[w]
            if f not in edges and len(ends & set(g.endpoints[f])) == 1
            and (later_blanks or colors[f] is not None)
        ]
        if not nxt:
            break
        edges.append(rng.choice(nxt))
    return tuple(edges)


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
