import dataclasses
import itertools
import random

import pytest

import listcolor as lc
from listcolor.chain import Chain, alternating_path, max_shiftable_prefix, resolve_path
from listcolor.engine import augment_once
from listcolor.errors import (
    COLOR_NOT_IN_LIST,
    START_NOT_BLANK,
    InternalAssertionError,
    NotShiftableError,
    PreconditionViolatedError,
)
from listcolor.vizing import classify_vizing

from conftest import (
    blank_edges,
    brute_max_prefix,
    live_state,
    random_chain,
    random_partial,
    random_vizing_partials,
    rebuilt,
    recompute_available,
    recompute_potential,
    recompute_used,
    reference_path,
    reference_shift,
    reference_vizing_fan,
    setup_partial,
    step_kind,
)

S6 = frozenset(range(1, 7))
AB = frozenset({1, 2})


def fig_shift_instance():
    # seven-edge chain through three hubs; colors 1..6 on edges 1..6
    specs = [
        (0, 1, None, S6),
        (0, 2, 1, S6),
        (0, 3, 2, S6),
        (3, 4, 3, S6),
        (5, 4, 4, S6),
        (5, 6, 5, S6),
        (5, 7, 6, S6),
    ]
    return setup_partial(8, specs)


def test_shift_seven_edge_chain_exact():
    g, L, phi = fig_shift_instance()
    phi.apply_chain_shift(phi.check_shift(tuple(range(7))))
    assert phi.color == [1, 2, 3, 4, 5, 6, None]
    assert phi.verify() == []


def test_shift_single_blank_edge_is_identity(triangle, monkeypatch):
    # a one-edge chain moves no color: its checked shift is empty, at the
    # current stamp, and no walk of the chain is made
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    phi.assign(1, 2)
    monkeypatch.setattr(lc.PartialColoring, "shift_violation", None)
    shift = phi.check_shift([0])
    assert shift == ((0,), {}, (0, 0), phi.stamp)
    phi.apply_chain_shift(shift)
    assert phi.color == [None, 2, None]


def test_shift_rejects_color_outside_start_list():
    specs = [(0, 1, None, frozenset({2, 3})), (1, 2, 1, frozenset({1, 2}))]
    g, L, phi = setup_partial(3, specs)
    with pytest.raises(NotShiftableError) as exc:
        phi.check_shift((0, 1))
    assert exc.value.index == 0
    assert exc.value.reason == COLOR_NOT_IN_LIST


def test_shift_rejects_colored_start(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    phi.assign(0, 1)
    phi.assign(1, 2)  # a blank edge after the start would be refused first
    for edges in ((0, 1), (0,)):
        with pytest.raises(NotShiftableError) as exc:
            phi.check_shift(edges)
        assert (exc.value.index, exc.value.reason) == (0, START_NOT_BLANK)


def test_shift_preserves_colors_away_from_ends(rng):
    # vertices not on the start or end edge keep their used sets
    for seed in range(40):
        g = lc.generate_random(10, 4, 2, seed=seed, edges=16)
        L = lc.generate_from_bounds(g, "koenig" if g.bipartition() else "vizing")
        phi = random_partial(g, L, random.Random(seed), fill=0.75)
        avail = recompute_available(g, L, phi.color)
        blanks = blank_edges(phi)
        hit = False
        for e in blanks:
            u, v = g.endpoints[e]
            for alpha in sorted(avail[u]):
                for beta in sorted(avail[v]):
                    if alpha == beta:
                        continue
                    path = alternating_path(phi, e, alpha, beta)
                    j = max_shiftable_prefix(phi, path)
                    pref = path.edges[:j]
                    before = recompute_used(g, phi.color)
                    phi.apply_chain_shift(phi.check_shift(pref))
                    after = recompute_used(g, phi.color)
                    ends = set(g.endpoints[pref[0]]) | set(g.endpoints[pref[-1]])
                    for z in range(g.n):
                        if z not in ends:
                            assert before[z] == after[z]
                    hit = True
                    break
                if hit:
                    break
            if hit:
                break


def fig_two_a_instance():
    # line of alternating 1/2 segments around the blank edge (5, 6)
    specs = [
        (2, 1, 1, AB),
        (1, 0, 2, AB),
        (4, 3, 1, AB),
        (5, 4, 2, AB),
        (5, 6, None, AB),
        (6, 7, 1, AB),
        (7, 8, 2, AB),
        (9, 10, 2, AB),
        (10, 11, 1, AB),
    ]
    return setup_partial(12, specs)


def test_alternating_path_two_directions():
    g, L, phi = fig_two_a_instance()
    # 1 is free at vertex 5 and 2 at vertex 6: the walk for (1, 2) starts
    # at 5 and leaves 6 along its 1-edge, the walk for (2, 1) the other way
    p_ab = alternating_path(phi, 4, 1, 2)
    p_ba = alternating_path(phi, 4, 2, 1)
    assert p_ab == Chain((4, 5, 6), False)
    assert p_ba == Chain((4, 3, 2), False)


def test_alternating_path_no_first_edge():
    g, L, phi = setup_partial(2, [(0, 1, None, AB)])
    assert alternating_path(phi, 0, 1, 2) == Chain((0,), False)


def test_alternating_path_cycle_returns_home():
    # seven-cycle: the walk ends back at the start vertex
    specs = [
        (0, 1, None, AB),
        (1, 2, 1, AB),
        (2, 3, 2, AB),
        (3, 4, 1, AB),
        (4, 5, 2, AB),
        (5, 6, 1, AB),
        (6, 0, 2, AB),
    ]
    g, L, phi = setup_partial(7, specs)
    assert alternating_path(phi, 0, 1, 2) == Chain((0, 1, 2, 3, 4, 5, 6), True)


def test_alternating_walk_refuses_a_revisit():
    # a used map rigged out of step with the colors: vertex 1 claims color 1
    # on the blank edge (1, 2), so the walk from blank edge (0, 1) enters the
    # proper 1/2 cycle 2-5-4-3-2 and would go round it forever; it is refused
    # where it first comes back to vertex 2
    specs = [
        (0, 1, None, AB),
        (1, 2, None, AB),
        (2, 3, 1, AB),
        (3, 4, 2, AB),
        (4, 5, 1, AB),
        (5, 2, 2, AB),
    ]
    g, L, phi = setup_partial(6, specs)
    lookups = itertools.count()

    class Counted(dict):  # a walk that never ends fails the test, not hangs it
        def get(self, key, default=None):
            if next(lookups) > 10 * g.m:
                raise RuntimeError("the walk did not end")
            return super().get(key, default)

    phi.used_edge[:] = map(Counted, phi.used_edge)
    phi.used_edge[1][1] = 1
    with pytest.raises(InternalAssertionError, match="^alternating walk revisited vertex 2$"):
        alternating_path(phi, 0, 1, 2)


def test_alternating_path_precondition():
    # colors not available at opposite endpoints are refused
    g, L, phi = setup_partial(3, [(0, 1, None, AB), (1, 2, 1, AB)])
    with pytest.raises(PreconditionViolatedError,
                       match="^edge 0: colors 5, 6 not available at opposite endpoints$"):
        alternating_path(phi, 0, 5, 6)


def five_edge_path_instance():
    # alternation 1,2,1,2 after the blank edge; shifting position 2 would
    # need color 1 there but its list is {2,3}, capping the prefix at 3
    specs = [
        (0, 1, None, AB),
        (1, 2, 1, AB),
        (2, 3, 2, frozenset({2, 3})),
        (3, 4, 1, AB),
        (4, 5, 2, frozenset({2, 4})),
    ]
    return setup_partial(6, specs)


def test_max_shiftable_prefix_derived_j3():
    g, L, phi = five_edge_path_instance()
    path = alternating_path(phi, 0, 1, 2)
    assert path.edges == (0, 1, 2, 3, 4)
    expected = brute_max_prefix(g, L, phi.color, list(path.edges))
    assert expected == 3
    assert max_shiftable_prefix(phi, path) == 3


def test_max_shiftable_prefix_full_when_lists_allow():
    g, L, phi = fig_two_a_instance()
    path = alternating_path(phi, 4, 1, 2)
    assert max_shiftable_prefix(phi, path) == len(path.edges)
    assert brute_max_prefix(g, L, phi.color, path.edges) == len(path.edges)


def test_max_shiftable_prefix_length_one():
    g, L, phi = setup_partial(2, [(0, 1, None, AB)])
    path = alternating_path(phi, 0, 1, 2)
    assert max_shiftable_prefix(phi, path) == 1


def test_max_shiftable_matches_brute_on_random(rng):
    checked = 0
    for seed in range(60):
        g = lc.generate_random(10, 4, 2, seed=seed, edges=15)
        L = lc.generate_from_bounds(g, "shannon")
        phi = random_partial(g, L, random.Random(seed), fill=0.8)
        avail = recompute_available(g, L, phi.color)
        for e in blank_edges(phi):
            u, v = g.endpoints[e]
            for alpha in sorted(avail[u])[:2]:
                for beta in sorted(avail[v])[:2]:
                    if alpha == beta:
                        continue
                    path = alternating_path(phi, e, alpha, beta)
                    got = max_shiftable_prefix(phi, path)
                    want = brute_max_prefix(g, L, phi.color, list(path.edges))
                    assert got == want
                    checked += 1
    assert checked > 100


def test_max_shiftable_matches_brute_on_thinned_lists(rng):
    # each colored edge loses one other color from its list, so paths stop
    # at strict prefixes that bound-derived lists almost never produce
    checked = strict = 0
    for seed in range(120):
        g = lc.generate_random(30, 4, 1, seed=seed, edges=58)
        L = lc.generate_from_bounds(g, "vizing")
        r = random.Random(seed)
        colors = random_partial(g, L, r, fill=0.9).color
        lists = [
            s if c is None else s - {r.choice(sorted(s - {c}))}
            for s, c in zip(L.lists, colors)
        ]
        L = lc.ListAssignment(g, lists)
        phi = lc.PartialColoring(g, L)
        for e, c in enumerate(colors):
            if c is not None:
                phi.assign(e, c)
        avail = recompute_available(g, L, colors)
        for e in blank_edges(phi):
            u, v = g.endpoints[e]
            for alpha in sorted(avail[u]):
                for beta in sorted(avail[v]):
                    if alpha == beta:
                        continue
                    path = alternating_path(phi, e, alpha, beta)
                    got = max_shiftable_prefix(phi, path)
                    want = brute_max_prefix(g, L, phi.color, list(path.edges))
                    assert got == want
                    checked += 1
                    strict += got < len(path.edges)
    assert checked > 100
    assert strict >= 50


def test_resolve_single_edge_happy(monkeypatch):
    # a one-edge path takes is_happy's color with no scan, check or commit
    g, L, phi = setup_partial(2, [(0, 1, None, AB)])
    path = alternating_path(phi, 0, 1, 2)
    for name in ("shift_violation", "check_shift", "apply_chain_shift"):
        monkeypatch.setattr(lc.PartialColoring, name, None)
    monkeypatch.setattr(lc.chain, "max_shiftable_prefix", None)
    assert resolve_path(phi, path) == path.edges  # happy: the whole path
    assert phi.color[0] == 1
    assert phi.verify() == []


def test_resolve_single_edge_without_a_color_is_a_lemma_violation():
    g, L, phi = setup_partial(3, [(0, 1, None, frozenset({1})), (1, 2, 1, AB)])
    before = live_state(phi)
    with pytest.raises(InternalAssertionError, match="^one-edge path 0 has no color to take$"):
        resolve_path(phi, Chain((0,), False))
    assert live_state(phi) == before


def test_resolve_two_edge_happy_colors_beta():
    # blank (0,1), then (1,2) colored 1; color 2 missing at the far end,
    # and 1 clashes at vertex 1 after the shift, so 2 is forced
    g, L, phi = setup_partial(3, [(0, 1, None, AB), (1, 2, 1, AB)])
    path = alternating_path(phi, 0, 1, 2)
    assert path.edges == (0, 1)
    assert resolve_path(phi, path) == path.edges
    assert phi.color[0] == 1 and phi.color[1] == 2
    assert phi.verify() == []


def test_resolve_prefix_content_derived():
    g, L, phi = five_edge_path_instance()
    path = alternating_path(phi, 0, 1, 2)
    before = recompute_potential(g, L, phi.color)
    blanks = phi.blanks
    out = resolve_path(phi, path)
    assert out == path.edges[:3]  # content: the shifted prefix, its end left blank
    assert phi.color[out[-1]] is None
    after = recompute_potential(g, L, phi.color)
    assert after < before
    assert after[0] <= before[0] - 1  # availability total drops
    assert phi.blanks == blanks
    assert phi.verify() == []


def test_resolve_refuses_a_colored_start_edge():
    # a colored start is refused before anything changes: a longer path's
    # prefix by check_shift, a one-edge path's edge by is_happy
    g, L, phi = five_edge_path_instance()
    path = alternating_path(phi, 0, 1, 2)
    phi.assign(0, 2)
    before = live_state(phi)
    with pytest.raises(NotShiftableError) as exc:
        resolve_path(phi, path)
    assert (exc.value.index, exc.value.reason) == (0, START_NOT_BLANK)
    assert live_state(phi) == before
    with pytest.raises(PreconditionViolatedError, match="^edge 0 is not blank$"):
        resolve_path(phi, Chain(path.edges[:1], False))
    assert live_state(phi) == before
    assert phi.verify() == []


def test_resolve_requires_distinct_ends():
    specs = [
        (0, 1, None, AB),
        (1, 2, 1, AB),
        (2, 3, 2, AB),
        (3, 4, 1, AB),
        (4, 5, 2, AB),
        (5, 6, 1, AB),
        (6, 0, 2, AB),
    ]
    g, L, phi = setup_partial(7, specs)
    path = alternating_path(phi, 0, 1, 2)
    with pytest.raises(PreconditionViolatedError):
        resolve_path(phi, path)


def test_resolve_random_postconditions(rng):
    resolved = 0
    for seed in range(80):
        g = lc.generate_random(10, 4, 2, seed=seed, edges=15)
        L = lc.generate_from_bounds(g, "shannon")
        phi = random_partial(g, L, random.Random(seed), fill=0.7)
        blanks = blank_edges(phi)
        if not blanks:
            continue
        e = blanks[0]
        u, v = g.endpoints[e]
        avail = recompute_available(g, L, phi.color)
        if not avail[u] or not avail[v]:
            continue
        alpha = min(avail[u])
        beta = min(avail[v])
        if alpha == beta:
            continue
        path = alternating_path(phi, e, alpha, beta)
        if path.closed:
            continue
        before = phi.potential()
        count = phi.blanks
        out = resolve_path(phi, path)
        assert phi.verify() == []
        assert phi.potential() < before
        if out == path.edges and phi.color[out[-1]] is not None:
            assert phi.blanks == count - 1
        else:
            assert out == path.edges[:len(out)] and phi.color[out[-1]] is None
            assert phi.blanks == count
        resolved += 1
    assert resolved > 20


def test_chain_is_frozen_slotted_and_compared_by_value():
    a, b = Chain((3, 1, 4), False), Chain((3, 1, 4), False)
    assert a is not b
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.edges = b.edges
    assert a == b
    assert hash(a) == hash(b)
    assert not hasattr(a, "__dict__")
    assert Chain.__slots__ == tuple(f.name for f in dataclasses.fields(a))


@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig"])
def test_only_paths_are_chains(mode, monkeypatch):
    # a fan travels as its edge tuple: shannon builds no Chain, vizing builds
    # only the paths it walks (at most two candidates per path shift), and
    # koenig builds the one path of each step (800 edges: 0, 63 and 803
    # Chains here, where fans as Chains made 800, 919 and 803)
    built = []
    init = Chain.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Chain, "__init__", counting)
    g = lc.generate_random(300, 8, 1, bipartite=mode == "koenig", seed=1)
    _, stats = lc.color_graph(g, lc.generate_from_bounds(g, mode), mode)
    assert g.m == 800
    if mode == "shannon":
        assert len(built) == 0
    elif mode == "vizing":
        assert 0 < len(built) <= 2 * stats.path_shifts
    else:
        assert len(built) == stats.steps


def walk_or_error(walk):

    try:
        return walk()
    except (InternalAssertionError, PreconditionViolatedError) as exc:
        return type(exc), str(exc)


def psi_walks(g, L, phi, rng):
    """(edges, psi, alpha, beta): each vizing fan candidate, from the
    reference fan, with the colors the classifier would walk, and random
    shiftable chains with colors free at the ends of their end edge after
    the shift; psi is the shifted color vector, by ``reference_shift``."""
    avail = recompute_available(g, L, phi.color)
    for e in blank_edges(phi):
        for x in g.endpoints[e]:
            (fan, beta, j), _ = reference_vizing_fan(g, L, phi.color, e, x)
            if j == len(fan) or not avail[x]:
                continue
            for cand in (fan, fan[:j]):
                yield cand, reference_shift(g, L, phi.color, cand), min(avail[x]), beta
    for _ in range(10):
        edges = random_chain(g, rng, phi.color)
        psi = reference_shift(g, L, phi.color, edges)
        if not isinstance(psi, list):
            continue
        shifted = recompute_available(g, L, psi)
        u, v = g.endpoints[edges[-1]]
        for alpha in sorted(shifted[u])[:2]:
            for beta in sorted(shifted[v])[:2]:
                yield edges, psi, alpha, beta


def test_psi_walk_matches_walk_in_shifted_copy():
    # the overlay walk finds the path (or the error) the definition gives in
    # the shifted colors, and leaves the live coloring, potential and blank
    # count alone; many of these walks could start from either endpoint
    paths = both = 0
    for g, L, phi in random_vizing_partials(50):
        for edges, psi, alpha, beta in psi_walks(g, L, phi, random.Random(g.m)):
            e = edges[-1]
            expected = reference_path(g, L, psi, e, alpha, beta)
            before = live_state(phi)
            got = walk_or_error(
                lambda: alternating_path(phi, e, alpha, beta,
                                         shifted=phi.check_shift(edges))
            )
            assert got == expected
            assert live_state(phi) == before
            paths += isinstance(got, Chain)
            ends = [recompute_available(g, L, psi)[w] for w in g.endpoints[e]]
            both += all({alpha, beta} <= at for at in ends)
    assert paths > 1000 and both > 500


def test_psi_walk_refuses_a_stale_or_foreign_shift():
    # the walk reads the live coloring, so a shift checked before its last
    # change, or on another coloring with the same colors, is refused
    g, L, phi = setup_partial(4, [(0, 1, None, AB), (1, 2, 1, AB), (2, 3, None, S6)])
    stale = phi.check_shift((0, 1))
    phi.assign(2, 3)
    foreign = rebuilt(phi).check_shift((0, 1))
    before = live_state(phi)
    for shift in (stale, foreign):
        with pytest.raises(PreconditionViolatedError):
            alternating_path(phi, 1, 1, 2, shifted=shift)
        assert live_state(phi) == before
    fresh = phi.check_shift((0, 1))
    assert alternating_path(phi, 1, 1, 2, shifted=fresh) == Chain((1, 0), False)
    assert live_state(phi) == before


def vizing_engine_states(seeds):
    """(phi, e) before every step of the vizing engine on small instances."""
    for seed in seeds:
        rng = random.Random(seed)
        g = lc.generate_random(
            rng.randint(3, 10), rng.randint(2, 10), rng.randint(1, 5),
            seed=seed, edges=rng.randint(2, 30),
        )
        phi = lc.PartialColoring(g, lc.generate_from_bounds(g, "vizing"))
        stats = lc.RunStats()
        for e in range(g.m):
            while e is not None:
                yield phi, e
                e = augment_once(phi, e, "vizing", stats)


def test_classified_psi_paths_match_walk_in_shifted_copy():
    branches = []
    for phi, e in vizing_engine_states(range(80)):
        before = live_state(phi)
        x = min(phi.g.endpoints[e])
        out = classify_vizing(phi, e, x)
        assert live_state(phi) == before
        if step_kind(out) == "path-psi":
            branch, shift, path, _ = out
            g, L = phi.g, phi.lists
            psi = reference_shift(g, L, phi.color, shift.edges)
            alpha = min(recompute_available(g, L, phi.color)[x])
            (_, beta, _), _ = reference_vizing_fan(g, L, phi.color, e, x)
            assert path == reference_path(g, L, psi, shift.edges[-1], alpha, beta)
            branches.append(branch)
    assert len(branches) > 20 and set(branches) == {"path-psi-full", "path-psi-prefix"}
