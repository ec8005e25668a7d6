"""The color masks of ``PartialColoring`` against plain set arithmetic.

Random assign, unassign and checked-shift sequences run on explicit lists
that hold a color of 10**9 and, on every edge, a color no other edge has,
which is in no common set because every vertex lies on a cycle.  After
every operation each question the engine asks of the masks must get the
answer the same question gets from sets recomputed from the colors alone.
Both palette layouts run: the default, which shares one palette between
all vertices of these instances, and one palette per vertex
(``coloring.WIDE = 0``).  Every example is derived from a fixed
seed, so the suite is deterministic.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import listcolor as lc
from listcolor import coloring
from listcolor.errors import (
    AvailabilityEmptyError,
    BetaEmptyError,
    LemmaViolationError,
    NotShiftableError,
)

from conftest import (
    adversarial_lists,
    available,
    random_chain,
    recompute_available,
    recompute_used,
)

BIG = 10**9
LAYOUTS = {"default": coloring.WIDE, "per-vertex": 0}


@st.composite
def instances(draw):
    """A cycle through every vertex plus chords and parallel edges; each
    list is a subset of {1..6, BIG} plus the edge's own color 100 + e."""
    n = draw(st.integers(3, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    extra = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=5))
    g = lc.Multigraph(n, [(x, (x + 1) % n) for x in range(n)] + extra)
    base = st.frozensets(st.sampled_from([1, 2, 3, 4, 5, 6, BIG]), max_size=7)
    return g, lc.ListAssignment(g, [draw(base) | {100 + e} for e in range(g.m)])


def outcome(fn, *args):
    try:
        return fn(*args)
    except (AvailabilityEmptyError, BetaEmptyError, LemmaViolationError) as exc:
        return type(exc)


def reference_vizing_fan(g, avail, colors, e, x):
    """The fan loop on sets: the k-th poll of a leaf takes its k-th
    smallest available color."""
    at_x = {colors[f]: f for f in g.incidence[x] if colors[f] is not None}
    left = {}
    index = {e: 0}
    edges = [e]
    vertices = [x, g.other_end(e, x)]
    for k in range(len(g.incidence[x])):
        z = vertices[-1]
        polls = left.setdefault(z, sorted(avail[z]))
        if not polls:
            return BetaEmptyError
        eta = polls.pop(0)
        ek = at_x.get(eta)
        if ek is None:
            return lc.Chain(tuple(edges), tuple(vertices)), eta, k + 1
        if ek in index:
            return lc.Chain(tuple(edges), tuple(vertices)), eta, index[ek]
        index[ek] = k + 1
        edges.append(ek)
        vertices.append(g.other_end(ek, x))
    return LemmaViolationError


def reference_shannon_fan(g, avail, used, colors, e):
    x, y = sorted(g.endpoints[e], key=lambda w: (len(g.incidence[w]), w))
    if avail[y] - used[x]:
        return lc.Chain((e,), (x, y))
    if not avail[y]:
        return AvailabilityEmptyError
    eta = min(avail[y])
    f = next(f for f in g.incidence[x] if colors[f] == eta)
    return lc.Chain((e, f), (x, y, g.other_end(f, x)))


def check_against_sets(phi):
    g = phi.g
    used = recompute_used(g, phi.color)
    avail = recompute_available(g, phi.lists, phi.color)
    for x in range(g.n):
        assert available(phi, x) == avail[x]
        assert phi.smallest(x, phi.available_mask(x)) == min(avail[x], default=None)
        assert max(phi.common_mask[x].bit_length(), phi.used_mask[x].bit_length()) \
            <= len(phi.palette[x])
    for e, (u, v) in enumerate(g.endpoints):
        for x, y in ((u, v), (v, u)):
            assert phi.smallest_unused(x, y) == min(avail[x] - used[y], default=None)
        if phi.color[e] is not None:
            continue
        assert phi.is_happy(e) == min((avail[u] - used[v]) | (avail[v] - used[u]),
                                      default=None)
        assert (outcome(lc.shannon_fan, phi, e)
                == reference_shannon_fan(g, avail, used, phi.color, e))
        for x in (u, v):
            assert (outcome(lc.vizing_fan, phi, e, x)
                    == reference_vizing_fan(g, avail, phi.color, e, x))
    for y in range(g.n):
        for z in range(g.n):
            assert phi.smallest_shared(y, z) == min(avail[y] & avail[z], default=None)
    assert phi.verify() == []


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(instance=instances(), seed=st.integers(0, 2**32), steps=st.integers(1, 25))
def test_masks_answer_as_sets_do(layout, instance, seed, steps):
    with pytest.MonkeyPatch.context() as mp:  # verify rebuilds the layout too
        mp.setattr(coloring, "WIDE", LAYOUTS[layout])
        masks_answer_as_sets_do(instance, seed, steps)


def masks_answer_as_sets_do(instance, seed, steps):
    g, L = instance
    rng = random.Random(seed)
    phi = lc.PartialColoring(g, L)
    assert set().union(*phi.palette) <= {1, 2, 3, 4, 5, 6, BIG}  # no 100 + e
    check_against_sets(phi)
    for _ in range(steps):
        op = rng.random()
        blanks = [e for e, c in enumerate(phi.color) if c is None]
        if blanks and op < 0.5:
            e = rng.choice(blanks)
            u, v = g.endpoints[e]
            legal = [c for c in sorted(L.lists[e])
                     if c not in phi.used_edge[u] and c not in phi.used_edge[v]]
            if legal:
                phi.assign(e, rng.choice(legal))
        elif len(blanks) < g.m and op < 0.7:
            colored = [e for e, c in enumerate(phi.color) if c is not None]
            phi.unassign(rng.choice(colored))
        else:
            chain = random_chain(g, rng, phi.color)
            try:
                phi.apply_chain_shift(phi.check_shift(chain.edges))
            except NotShiftableError:
                continue
        check_against_sets(phi)
    x = rng.randrange(g.n)
    if phi.palette[x]:
        phi.used_mask[x] ^= 1 << rng.randrange(len(phi.palette[x]))
        assert ("CacheMismatch", f"color masks at vertex {x}") in phi.verify()


def test_layouts_color_alike(monkeypatch):
    # the per-vertex palettes of a wide palette answer as the shared one does,
    # and keep every mask as narrow as its vertex's common set
    runs = []
    for seed in range(6):
        rng = random.Random(seed)
        g = lc.generate_random(1200, 6, 2, seed=seed)
        targets = [frozenset(rng.sample(range(1, 10**6), lc.local_bound(g, x, "vizing")))
                   for x in range(g.n)]
        wide = lc.ListAssignment(g, [targets[u] | targets[v] for u, v in g.endpoints])
        runs += [(g, wide, "explicit", "vizing"),
                 (g, adversarial_lists(g, "vizing", rng), "explicit", "vizing"),
                 (g, lc.generate_from_bounds(g, "shannon"), "shannon", None)]
    per_vertex = 0
    for g, L, mode, assume in runs:
        out = {}
        for name, wide in (*LAYOUTS.items(), ("shared", 10**9)):
            monkeypatch.setattr(coloring, "WIDE", wide)
            records = []
            phi, stats = lc.color_graph(g, L, mode, assume_bound=assume,
                                        trace=records.append)
            out[name] = (phi.color, stats, records)
            if name == "default" and len({id(p) for p in phi.palette}) > 1:
                per_vertex += 1
                assert all(m.bit_length() <= len(s)
                           for m, s in zip(phi.common_mask, L.common))
        assert out["default"] == out["per-vertex"] == out["shared"]
    assert per_vertex == 6
