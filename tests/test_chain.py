import random

import pytest

import listcolor as lc
from listcolor.errors import (
    COLOR_NOT_IN_LIST,
    EdgeNotBlankError,
    LemmaViolationError,
    NotShiftableError,
    PreconditionViolatedError,
)

from conftest import (
    blank_edges,
    brute_max_prefix,
    brute_shift_ok,
    random_chain,
    random_partial,
    random_vizing_partials,
    recompute_potential,
    recompute_used,
    setup_partial,
    shifted_copy,
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
    chain = lc.Chain(tuple(range(7)))
    shifted = shifted_copy(phi, chain)
    assert shifted.color == [1, 2, 3, 4, 5, 6, None]
    assert phi.color == [None, 1, 2, 3, 4, 5, 6]  # input untouched
    assert shifted.verify() == []


def test_shift_single_blank_edge_is_identity(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    shifted = shifted_copy(phi, lc.Chain((0,)))
    assert shifted.color == phi.color


def test_shift_rejects_color_outside_start_list():
    specs = [(0, 1, None, frozenset({2, 3})), (1, 2, 1, frozenset({1, 2}))]
    g, L, phi = setup_partial(3, specs)
    with pytest.raises(NotShiftableError) as exc:
        shifted_copy(phi, lc.Chain((0, 1)))
    assert exc.value.index == 0
    assert exc.value.reason == COLOR_NOT_IN_LIST


def test_shift_rejects_colored_start(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    phi.assign(0, 1)
    with pytest.raises(NotShiftableError) as exc:
        shifted_copy(phi, lc.Chain((0, 1)))
    assert exc.value.index == 0


def test_shift_preserves_colors_away_from_ends(rng):
    # vertices not on the start or end edge keep their used sets
    for seed in range(40):
        g = lc.generate_random(10, 4, 2, seed=seed, edges=16)
        L = lc.generate_from_bounds(g, "koenig" if g.bipartition() else "vizing")
        phi = random_partial(g, L, random.Random(seed), fill=0.75)
        blanks = blank_edges(phi)
        hit = False
        for e in blanks:
            u, v = g.endpoints[e]
            for alpha in sorted(phi.available[u]):
                for beta in sorted(phi.available[v]):
                    if alpha == beta:
                        continue
                    path = lc.alternating_path(phi, e, alpha, beta)
                    j = lc.max_shiftable_prefix(phi, path)
                    pref = path.prefix(j)
                    shifted = shifted_copy(phi, pref)
                    before = recompute_used(g, phi.color)
                    after = recompute_used(g, shifted.color)
                    ends = set(g.endpoints[pref.start]) | set(g.endpoints[pref.end])
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
    p_ab = lc.alternating_path(phi, 4, 1, 2)
    p_ba = lc.alternating_path(phi, 4, 2, 1)
    assert p_ab.edges == (4, 5, 6)
    assert p_ab.vstart == 5 and p_ab.vend == 8
    assert p_ba.edges == (4, 3, 2)
    assert p_ba.vstart == 6 and p_ba.vend == 3
    assert set(p_ab.edges) & set(p_ba.edges) == {4}


def test_alternating_path_no_first_edge():
    g, L, phi = setup_partial(2, [(0, 1, None, AB)])
    p = lc.alternating_path(phi, 0, 1, 2)
    assert p.edges == (0,)
    assert p.vstart == 0 and p.vend == 1


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
    p = lc.alternating_path(phi, 0, 1, 2)
    assert p.edges == (0, 1, 2, 3, 4, 5, 6)
    assert p.vstart == p.vend == 0


def test_alternating_path_precondition():
    g, L, phi = setup_partial(3, [(0, 1, None, AB), (1, 2, 1, AB)])
    with pytest.raises(PreconditionViolatedError):
        lc.alternating_path(phi, 0, 1, 1)
    with pytest.raises(PreconditionViolatedError):
        lc.alternating_path(phi, 0, 5, 6)


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
    path = lc.alternating_path(phi, 0, 1, 2)
    assert path.edges == (0, 1, 2, 3, 4)
    expected = brute_max_prefix(g, L, phi.color, list(path.edges))
    assert expected == 3
    assert lc.max_shiftable_prefix(phi, path) == 3


def test_max_shiftable_prefix_full_when_lists_allow():
    g, L, phi = fig_two_a_instance()
    path = lc.alternating_path(phi, 4, 1, 2)
    assert lc.max_shiftable_prefix(phi, path) == path.length
    assert brute_shift_ok(g, L, phi.color, list(path.edges))


def test_max_shiftable_prefix_length_one():
    g, L, phi = setup_partial(2, [(0, 1, None, AB)])
    path = lc.alternating_path(phi, 0, 1, 2)
    assert lc.max_shiftable_prefix(phi, path) == 1


def test_max_shiftable_matches_brute_on_random(rng):
    checked = 0
    for seed in range(60):
        g = lc.generate_random(10, 4, 2, seed=seed, edges=15)
        L = lc.generate_from_bounds(g, "shannon")
        phi = random_partial(g, L, random.Random(seed), fill=0.8)
        for e in blank_edges(phi):
            u, v = g.endpoints[e]
            for alpha in sorted(phi.available[u])[:2]:
                for beta in sorted(phi.available[v])[:2]:
                    if alpha == beta:
                        continue
                    path = lc.alternating_path(phi, e, alpha, beta)
                    got = lc.max_shiftable_prefix(phi, path)
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
        for e in blank_edges(phi):
            u, v = g.endpoints[e]
            for alpha in sorted(phi.available[u]):
                for beta in sorted(phi.available[v]):
                    if alpha == beta:
                        continue
                    path = lc.alternating_path(phi, e, alpha, beta)
                    got = lc.max_shiftable_prefix(phi, path)
                    want = brute_max_prefix(g, L, phi.color, list(path.edges))
                    assert got == want
                    checked += 1
                    strict += got < path.length
    assert checked > 100
    assert strict >= 50


def test_max_shiftable_prefix_rejects_non_alternating_colors():
    specs = [
        (0, 1, None, S6),
        (1, 2, 1, S6),
        (2, 3, 2, S6),
        (3, 4, 3, S6),
    ]
    g, L, phi = setup_partial(5, specs)
    path = lc.Chain((0, 1, 2, 3), (0, 1, 2, 3, 4))
    with pytest.raises(PreconditionViolatedError):
        lc.max_shiftable_prefix(phi, path)
    with pytest.raises(NotShiftableError):
        lc.max_shiftable_prefix(phi, lc.Chain((1, 2), (1, 2, 3)))


def test_resolve_single_edge_happy():
    g, L, phi = setup_partial(2, [(0, 1, None, AB)])
    path = lc.alternating_path(phi, 0, 1, 2)
    assert lc.resolve_path(phi, path) == path  # happy: the whole path
    assert phi.color[0] == 1
    assert phi.verify() == []


def test_resolve_two_edge_happy_colors_beta():
    # blank (0,1), then (1,2) colored 1; color 2 missing at the far end,
    # and 1 clashes at vertex 1 after the shift, so 2 is forced
    g, L, phi = setup_partial(3, [(0, 1, None, AB), (1, 2, 1, AB)])
    path = lc.alternating_path(phi, 0, 1, 2)
    assert path.edges == (0, 1)
    assert lc.resolve_path(phi, path) == path
    assert phi.color[0] == 1 and phi.color[1] == 2
    assert phi.verify() == []


def test_resolve_prefix_content_derived():
    g, L, phi = five_edge_path_instance()
    path = lc.alternating_path(phi, 0, 1, 2)
    before = recompute_potential(g, L, phi.color)
    blanks = phi.blanks
    out = lc.resolve_path(phi, path)
    assert out == path.prefix(3)  # content: the shifted prefix, its end left blank
    assert phi.color[out.end] is None
    after = recompute_potential(g, L, phi.color)
    assert after < before
    assert after[0] <= before[0] - 1  # availability total drops
    assert phi.blanks == blanks
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
    path = lc.alternating_path(phi, 0, 1, 2)
    with pytest.raises(PreconditionViolatedError):
        lc.resolve_path(phi, path)


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
        if not phi.available[u] or not phi.available[v]:
            continue
        alpha = min(phi.available[u])
        beta = min(phi.available[v])
        if alpha == beta:
            continue
        path = lc.alternating_path(phi, e, alpha, beta)
        if path.vstart == path.vend:
            continue
        before = phi.potential()
        count = phi.blanks
        out = lc.resolve_path(phi, path)
        assert phi.verify() == []
        assert phi.potential() < before
        if out == path and phi.color[out.end] is not None:
            assert phi.blanks == count - 1
        else:
            assert out == path.prefix(out.length) and phi.color[out.end] is None
            assert phi.blanks == count
        resolved += 1
    assert resolved > 20


def shannon_two_edge_fan():
    # only color 1 is available at vertex 1, and the pivot 0 uses it on (0, 2)
    _, _, phi = setup_partial(4, [(0, 1, None, AB), (0, 2, 1, AB), (1, 3, 2, AB)])
    return lc.shannon_fan(phi, 0)


def vizing_three_edge_fan():
    _, _, phi = setup_partial(4, [(0, 1, None, S6), (0, 2, 1, S6), (0, 3, 2, S6)])
    return lc.vizing_fan(phi, 0, 0).fan


@pytest.mark.parametrize("make_fan", [shannon_two_edge_fan, vizing_three_edge_fan])
def test_fan_prefix_keeps_the_pivot_and_its_first_leaves(make_fan):
    fan = make_fan()
    pivot, leaves = fan.vertices[0], fan.vertices[1:]
    assert fan.length == len(leaves) >= 2
    for j in range(1, fan.length + 1):
        pre = fan.prefix(j)
        assert pre.edges == fan.edges[:j]
        assert pre.vertices == (pivot, *leaves[:j])
        assert pre.vend == leaves[j - 1]


def test_bare_chain_prefix_has_no_vertices():
    chain = lc.Chain((0, 1, 2))
    assert chain.vertices == ()
    assert chain.prefix(1).edges == (0,)
    assert chain.prefix(1).vertices == ()


def live_state(phi):
    return (
        list(phi.color),
        [dict(d) for d in phi.used_edge],
        [set(s) for s in phi.available],
        phi.potential(),
        phi.blanks,
    )


def walk_or_error(walk):
    try:
        return walk()
    except (EdgeNotBlankError, LemmaViolationError, PreconditionViolatedError) as exc:
        return type(exc), str(exc)


def psi_walks(g, phi, rng):
    """(chain, alpha, beta): each vizing fan candidate with the colors the
    classifier would walk, and random shiftable chains with colors free at
    the ends of their end edge after the shift."""
    for e in blank_edges(phi):
        for x in g.endpoints[e]:
            res = lc.vizing_fan(phi, e, x)
            if res.j == res.fan.length or not phi.available[x]:
                continue
            for cand in (res.fan, res.fan.prefix(res.j)):
                yield cand, min(phi.available[x]), res.beta
    for _ in range(10):
        chain = random_chain(g, rng, phi.color)
        try:
            psi = shifted_copy(phi, chain)
        except NotShiftableError:
            continue
        u, v = g.endpoints[chain.end]
        for alpha in sorted(psi.available[u])[:2]:
            for beta in sorted(psi.available[v])[:2]:
                yield chain, alpha, beta


def test_psi_walk_matches_walk_in_shifted_copy():
    # the overlay walk finds the path (or the error) the walk in a shifted
    # copy finds, and leaves the live coloring, potential and blank count alone
    paths = 0
    for g, L, phi in random_vizing_partials(50):
        for chain, alpha, beta in psi_walks(g, phi, random.Random(g.m)):
            expected = walk_or_error(
                lambda: lc.alternating_path(shifted_copy(phi, chain), chain.end, alpha, beta)
            )
            before = live_state(phi)
            got = walk_or_error(
                lambda: lc.alternating_path(phi, chain.end, alpha, beta,
                                            shifted=phi.check_shift(chain.edges))
            )
            assert got == expected
            assert live_state(phi) == before
            paths += isinstance(got, lc.Chain)
    assert paths > 1000


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
                e = lc.augment_once(phi, e, "vizing", stats)


def test_classified_psi_paths_match_walk_in_shifted_copy():
    branches = []
    for phi, e in vizing_engine_states(range(80)):
        before = live_state(phi)
        x = min(phi.g.endpoints[e])
        out = lc.classify_vizing(phi, e, x)
        assert live_state(phi) == before
        if step_kind(out) == "path-psi":
            psi = shifted_copy(phi, lc.Chain(out.shift.edges))
            alpha, beta = min(phi.available[x]), lc.vizing_fan(phi, e, x).beta
            assert out.path == lc.alternating_path(psi, out.shift.edges[-1], alpha, beta)
            branches.append(out.branch)
    assert len(branches) > 20 and set(branches) == {"path-psi-full", "path-psi-prefix"}
