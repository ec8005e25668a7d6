import random
from collections import Counter

import pytest

import listcolor as lc
from listcolor import coloring
from listcolor.errors import (
    COLOR_CLASH,
    COLOR_NOT_IN_LIST,
    NotShiftableError,
    PreconditionViolatedError,
)

from conftest import (
    FULL6,
    available,
    blank_edges,
    random_chain,
    rebuilt,
    replay_shift,
    random_partial,
    random_vizing_partials,
    recompute_available,
    recompute_potential,
    recompute_used,
    setup_partial,
    three_pass_check_shift,
    live_state,
)


def test_blank_triangle_potential(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    # A = 3 vertices * 3 common colors, D = sum deg(x) * blank incidences = 3 * (2*2)
    assert phi.potential() == (9, 12)
    assert phi.blanks == 3


def test_blank_digon_potential(digon):
    g, L = digon
    phi = lc.PartialColoring(g, L)
    assert phi.potential() == (8, 8)


def test_blank_empty_graph_potential():
    g = lc.Multigraph(3, [])
    L = lc.ListAssignment(g, [])
    phi = lc.PartialColoring(g, L)
    assert phi.potential() == (0, 0)


def test_assign_updates_both_endpoints(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    phi.assign(0, 1)
    assert set(phi.used_edge[0].keys()) == {1}
    assert available(phi, 0) == {2, 3}
    assert set(phi.used_edge[1].keys()) == {1}
    assert phi.blanks == 2


def test_assign_clash_rejected(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    phi.assign(0, 1)
    with pytest.raises(PreconditionViolatedError,
                       match=r"^color 1 already used at an end of edge 1$"):
        phi.assign(1, 1)  # shares vertex 1 with edge 0


def test_assign_color_not_in_list(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    with pytest.raises(PreconditionViolatedError, match=r"^color 9 not in list of edge 0$"):
        phi.assign(0, 9)


def test_assign_requires_blank_unassign_requires_colored(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    with pytest.raises(PreconditionViolatedError, match=r"^edge 0 already blank$"):
        phi.unassign(0)
    phi.assign(0, 1)
    with pytest.raises(PreconditionViolatedError, match=r"^edge 0 already colored$"):
        phi.assign(0, 2)


def test_assign_unassign_roundtrip(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    before = (
        list(phi.color),
        [dict(d) for d in phi.used_edge],
        [available(phi, x) for x in range(phi.g.n)],
        phi.blanks,
        phi.potential(),
    )
    phi.assign(1, 2)
    phi.unassign(1)
    after = (
        list(phi.color),
        [dict(d) for d in phi.used_edge],
        [available(phi, x) for x in range(phi.g.n)],
        phi.blanks,
        phi.potential(),
    )
    assert before == after


def test_assign_moves_potential_monotonically(rng):
    for seed in range(20):
        g = lc.generate_random(8, 4, 2, seed=seed, edges=12)
        L = lc.generate_from_bounds(g, "vizing")
        phi = lc.PartialColoring(g, L)
        for e in range(g.m):
            c = phi.is_happy(e)
            if c is None:
                continue
            a0, d0 = phi.potential()
            phi.assign(e, c)
            a1, d1 = phi.potential()
            assert d1 < d0
            assert a1 <= a0


def test_is_happy_blank_triangle(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    assert phi.is_happy(0) == 1


def test_is_happy_requires_blank(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    phi.assign(0, 1)
    with pytest.raises(PreconditionViolatedError, match=r"^edge 0 is not blank$"):
        phi.is_happy(0)


def test_is_happy_blocked_edge_derived():
    # x=0 uses {1,2}, y=1 uses {2,3}, common sets are {1,2,3} everywhere:
    # A(x) = {3} is inside used(y), A(y) = {1} is inside used(x)
    S = frozenset({1, 2, 3})
    g, L, phi = setup_partial(
        6,
        [
            (0, 1, None, S),
            (0, 2, 1, S),
            (0, 3, 2, S),
            (1, 4, 2, S),
            (1, 5, 3, S),
        ],
    )
    avail = recompute_available(g, L, phi.color)
    used = recompute_used(g, phi.color)
    assert avail[0] - used[1] == set() and avail[1] - used[0] == set()
    assert phi.is_happy(0) is None


def test_is_happy_empty_availability():
    S = frozenset({1})
    g, L, phi = setup_partial(4, [(0, 1, None, S), (0, 2, 1, S), (1, 3, 1, S)])
    assert available(phi, 0) == set() and available(phi, 1) == set()
    assert phi.is_happy(0) is None


def test_verify_clean_and_after_operations(rng):
    for seed in range(25):
        g = lc.generate_random(10, 5, 2, seed=seed, edges=16)
        L = lc.generate_from_bounds(g, "shannon")
        phi = random_partial(g, L, random.Random(seed), fill=0.7)
        assert phi.verify() == []
        a, d = recompute_potential(g, L, phi.color)
        assert phi.potential() == (a, d)


def test_verify_reports_cache_mismatch(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    phi.assign(0, 1)
    phi.used_mask[2] |= 1 << phi.rank[2][3]  # corrupt one cached used mask: 3 looks taken
    findings = phi.verify()
    assert any(kind == "CacheMismatch" for kind, _ in findings)


# cache -> (corrupt it alone, the one detail verify must report)
CORRUPTIONS = {
    "used_edge": (lambda phi: phi.used_edge[2].update({3: 1}), "used set at vertex 2"),
    "available": (lambda phi: phi.used_mask.__setitem__(2, phi.used_mask[2] | 1 << phi.rank[2][3]),
                  "color masks at vertex 2"),
    "rank": (lambda phi: phi.rank.__setitem__(2, {**phi.rank[2], 3: phi.rank[2][1]}),
             "palette at vertex 2"),
    "blanks": (lambda phi: setattr(phi, "blanks", phi.blanks + 1), "blank edge count"),
    "a_total": (lambda phi: setattr(phi, "a_total", phi.a_total + 1),
                "potential totals cached (8, 8) recomputed (7, 8)"),
    "d_total": (lambda phi: setattr(phi, "d_total", phi.d_total + 1),
                "potential totals cached (7, 9) recomputed (7, 8)"),
}


@pytest.mark.parametrize("cache", sorted(CORRUPTIONS))
def test_verify_catches_each_cache_corrupted_alone(triangle, cache):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    phi.assign(0, 1)
    assert recompute_potential(g, L, phi.color) == (7, 8)
    corrupt, detail = CORRUPTIONS[cache]
    corrupt(phi)
    assert phi.verify() == [("CacheMismatch", detail)]


def test_verify_reports_improper_and_unlisted(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    phi.assign(0, 1)
    phi.color[1] = 1  # bypass assign to plant a clash at vertex 1
    kinds = {kind for kind, _ in phi.verify()}
    assert "ImproperAssignment" in kinds
    phi.color[1] = 99
    kinds = {kind for kind, _ in phi.verify()}
    assert "ColorNotInList" in kinds


def test_cache_coherence_under_shift_churn(rng):
    # interleave assigns, unassigns, and chain shifts, then re-derive all;
    # the blank count matches the colors after every operation, and no
    # committed shift moves it
    shifts = 0
    for seed in range(15):
        g = lc.generate_random(9, 4, 2, seed=seed, edges=14)
        L = lc.generate_from_bounds(g, "vizing")
        phi = random_partial(g, L, random.Random(seed), fill=0.8)
        r = random.Random(seed + 999)
        for _ in range(30):
            blanks = blank_edges(phi)
            op = r.random()
            if blanks and op < 0.3:
                e = r.choice(blanks)
                c = phi.is_happy(e)
                if c is not None:
                    phi.assign(e, c)
            elif len(blanks) < g.m and op < 0.6:
                phi.unassign(r.choice([e for e, c in enumerate(phi.color) if c is not None]))
            else:
                before = phi.blanks
                try:
                    phi.apply_chain_shift(phi.check_shift(random_chain(g, r, phi.color).edges))
                except NotShiftableError:
                    continue
                assert phi.blanks == before
                shifts += 1
            assert phi.blanks == phi.color.count(None)
        assert phi.verify() == []
        used = recompute_used(g, phi.color)
        for x in range(g.n):
            assert set(phi.used_edge[x].keys()) == used[x]
    assert shifts > 50


def test_potential_bounds_hold(rng):
    for seed in range(20):
        g = lc.generate_random(9, 5, 3, seed=seed, edges=15)
        L = lc.generate_from_bounds(g, "shannon")
        phi = random_partial(g, L, random.Random(seed))
        a, d = phi.potential()
        assert 0 <= a <= g.n * max(map(len, L.common))
        assert 0 <= d <= 2 * g.m * g.m


def test_fully_colored_d_zero():
    g = lc.Multigraph(2, [(0, 1)])
    L = lc.ListAssignment(g, [frozenset({1})])
    phi = lc.PartialColoring(g, L)
    phi.assign(0, 1)
    assert phi.potential()[1] == 0
    assert phi.blanks == 0


def coloring_state(phi):
    return (
        list(phi.color),
        [dict(d) for d in phi.used_edge],
        [available(phi, x) for x in range(phi.g.n)],
        phi.a_total,
        phi.d_total,
        phi.blanks,
    )


def chains_to_shift(g, phi, rng):
    """Fans, alternating paths and their prefixes, arbitrary chains, and
    chains that may have blank edges after the start."""
    for e in blank_edges(phi):
        for x in g.endpoints[e]:
            fan, _, j = lc.vizing_fan(phi, e, x)
            yield fan
            yield fan.prefix(j)
        try:
            yield lc.shannon_fan(phi, e)
        except PreconditionViolatedError as exc:
            assert str(exc).startswith("no available color at vertex ")
        u, v = g.endpoints[e]
        for alpha in sorted(available(phi, u))[:2]:
            for beta in sorted(available(phi, v))[:2]:
                try:
                    path = lc.alternating_path(phi, e, alpha, beta)
                except PreconditionViolatedError:
                    continue
                for j in range(1, len(path.edges) + 1):
                    yield path.prefix(j)
    for _ in range(12):
        yield random_chain(g, rng, phi.color)
    for _ in range(4):
        yield random_chain(g, rng, phi.color, later_blanks=True)


def test_one_pass_commit_matches_edge_by_edge_replay():
    # the committed shift leaves exactly the state the old replay left, and
    # a refused one raises the same index and reason and changes nothing;
    # so does a chain with a blank edge after its start, refused as malformed
    reasons = set()
    later_blank = parallel = committed = 0
    for g, L, phi in random_vizing_partials(50):
        rng = random.Random(g.m * 7 + g.n)
        for chain in chains_to_shift(g, phi, rng):
            edges = chain.edges
            expected, got = rebuilt(phi), rebuilt(phi)
            try:
                replay_shift(expected, edges)
            except PreconditionViolatedError:
                before = coloring_state(got)
                with pytest.raises(PreconditionViolatedError):
                    got.check_shift(edges)
                assert coloring_state(got) == before
                later_blank += 1
                continue
            except NotShiftableError as exc:
                before = coloring_state(got)
                with pytest.raises(NotShiftableError) as raised:
                    got.check_shift(edges)
                assert (raised.value.index, raised.value.reason) == (exc.index, exc.reason)
                assert coloring_state(got) == before
                reasons.add(exc.reason)
                continue
            got.apply_chain_shift(got.check_shift(edges))
            assert coloring_state(got) == coloring_state(expected)
            assert got.verify() == []
            committed += 1
            ends = [frozenset(g.endpoints[f]) for f in edges]
            parallel += len(set(ends)) < len(ends)
    assert {COLOR_CLASH, COLOR_NOT_IN_LIST} <= reasons
    assert committed > 1000 and later_blank > 20 and parallel > 20


def test_stale_shift_is_refused():
    # a checked shift is valid only until the coloring next changes: once a
    # chain edge has another color, committing it raises and changes nothing
    g, L, phi = setup_partial(3, [(0, 1, None, FULL6), (1, 2, 1, FULL6)])
    stale = phi.check_shift((0, 1))
    phi.unassign(1)
    phi.assign(1, 2)
    before = coloring_state(phi)
    with pytest.raises(PreconditionViolatedError):
        phi.apply_chain_shift(stale)
    assert coloring_state(phi) == before
    # committing one shift twice is the same mistake
    shift = phi.check_shift((0, 1))
    phi.apply_chain_shift(shift)
    assert phi.color == [2, None]
    after = coloring_state(phi)
    with pytest.raises(PreconditionViolatedError):
        phi.apply_chain_shift(shift)
    assert coloring_state(phi) == after
    assert phi.verify() == []


def test_shift_is_stale_after_a_change_off_the_chain():
    # the chain keeps its colors, but an edge beside it takes the color the
    # shift would move onto vertex 0: the commit must refuse it
    g, L, phi = setup_partial(
        4, [(0, 1, None, FULL6), (1, 2, 1, FULL6), (0, 3, None, FULL6)]
    )
    stale = phi.check_shift((0, 1))
    phi.assign(2, 1)
    before = coloring_state(phi)
    with pytest.raises(PreconditionViolatedError):
        phi.apply_chain_shift(stale)
    assert coloring_state(phi) == before
    assert phi.color == [None, 1, 1]
    assert phi.verify() == []
    # a rebuilt coloring is another one: it refuses a shift checked on phi
    shift = phi.check_shift((0,))
    other = rebuilt(phi)
    with pytest.raises(PreconditionViolatedError):
        other.apply_chain_shift(shift)
    assert coloring_state(other) == coloring_state(phi)
    phi.apply_chain_shift(shift)  # phi itself still takes it
    assert phi.verify() == []


@pytest.mark.parametrize("mutate", [
    lambda phi: phi.assign(2, 3),
    lambda phi: phi.unassign(3),
    lambda phi: phi.apply_chain_shift(phi.check_shift((2, 3))),
], ids=["assign", "unassign", "shift"])
def test_one_change_off_the_chain_makes_a_shift_stale(mutate):
    # each mutator renews the stamp: after a single change elsewhere, the
    # chain (0, 1) is still shiftable, but the shift checked before is refused
    g, L, phi = setup_partial(5, [
        (0, 1, None, FULL6), (1, 2, 1, FULL6), (0, 3, None, FULL6), (3, 4, 2, FULL6),
    ])
    stale = phi.check_shift((0, 1))
    mutate(phi)
    before = coloring_state(phi)
    with pytest.raises(PreconditionViolatedError):
        phi.apply_chain_shift(stale)
    assert coloring_state(phi) == before
    assert phi.verify() == []
    assert phi.check_shift((0, 1)).changes == stale.changes


def test_check_shift_refuses_empty_and_repeating_chains():
    # on the path 0-1-2 the chain (0, 1, 0) once passed the check and its
    # commit blanked both edges while vertex 0 kept color 1 in its cache;
    # a chain must be nonempty with distinct edges, or nothing is computed
    L12 = frozenset({1, 2})
    g, L, phi = setup_partial(3, [(0, 1, None, L12), (1, 2, 1, L12)])
    before = coloring_state(phi)
    for edges in ([0, 1, 0], (), [0, 0], [0, 1, 1]):
        with pytest.raises(PreconditionViolatedError):
            phi.check_shift(edges)
        assert coloring_state(phi) == before
        assert phi.verify() == []
    refused = 0
    for g, L, phi in random_vizing_partials(30):
        rng = random.Random(g.m)
        before = coloring_state(phi)
        for _ in range(10):
            edges = list(random_chain(g, rng, phi.color).edges)
            edges.insert(rng.randint(0, len(edges)), rng.choice(edges))
            with pytest.raises(PreconditionViolatedError):
                phi.check_shift(edges)
            refused += 1
        assert coloring_state(phi) == before
    assert refused >= 300


def test_check_shift_refuses_a_blank_edge_after_the_start():
    # a chain is one blank edge followed by colored edges: on the path
    # 0-1-2-3-4, blanking any later edge, or two of them, gives a chain
    # whose shift would once have passed; now it is refused unchanged
    L3 = frozenset({1, 2, 3})
    specs = [(0, 1, None, L3), (1, 2, 1, L3), (2, 3, 2, L3), (3, 4, 1, L3)]
    for blank in ((1,), (2,), (3,), (1, 3)):
        g, L, phi = setup_partial(5, specs)
        for e in blank:
            phi.unassign(e)
        before = coloring_state(phi)
        with pytest.raises(PreconditionViolatedError):
            phi.check_shift((0, 1, 2, 3))
        assert coloring_state(phi) == before
        assert phi.verify() == []
    # the same chains without the later blanks shift
    g, L, phi = setup_partial(5, specs)
    phi.apply_chain_shift(phi.check_shift((0, 1, 2, 3)))
    assert phi.color == [1, 2, 1, None]


def check_outcome(check, phi, edges):
    """What a shift check gives: the shift with its changes in order, or
    the refusal's class, message, index and reason."""
    try:
        shift = check(phi, edges)
    except (PreconditionViolatedError, NotShiftableError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "reason", None)
    return shift, list(shift.changes.items())


def odd_chains(g, phi, rng):
    """Chains of every shape a check must answer or refuse: empty, each
    edge alone, random chains that may start colored or hold later blanks,
    and those chains with an edge repeated, the start edge included."""
    yield ()
    for e in range(g.m):
        yield (e,)
    for _ in range(20):
        edges = random_chain(g, rng, phi.color, later_blanks=rng.random() < 0.3).edges
        yield edges
        yield edges + edges[:1]
        i = rng.randrange(len(edges))
        yield edges[:i] + (rng.choice(edges),) + edges[i:]


def chain_shapes(g, phi, edges):
    """The shapes a chain has, of those a check treats apart."""
    colors = [phi.color[e] for e in edges]
    ends = [frozenset(g.endpoints[e]) for e in edges]
    return {
        "empty": not edges,
        "one edge": len(edges) == 1,
        "repeats": len(set(edges)) < len(edges),
        "later blank": None in colors[1:],
        "colored start": bool(edges) and colors[0] is not None,
        "colored start repeated": bool(edges) and colors[0] is not None
        and edges[0] in edges[1:],
        "parallel edges": len(set(ends)) < len(ends),
    }


@pytest.mark.parametrize("wide", [coloring.WIDE, 0], ids=["shared", "per-vertex"])
def test_check_shift_answers_as_the_three_pass_reference(wide, monkeypatch):
    # the check that refuses inside its walk gives the reference's shift, or
    # its refusal, on chains of every shape and in both palette layouts
    monkeypatch.setattr(coloring, "WIDE", wide)
    shapes, outcomes = Counter(), Counter()
    for g, L, phi in random_vizing_partials(40):
        rng = random.Random(g.m * 5 + g.n)
        before = live_state(phi)
        chains = [chain.edges for chain in chains_to_shift(g, phi, rng)]
        for edges in chains + list(odd_chains(g, phi, rng)):
            expected = check_outcome(three_pass_check_shift, phi, edges)
            assert check_outcome(lc.PartialColoring.check_shift, phi, edges) == expected, edges
            assert live_state(phi) == before
            shapes.update(k for k, v in chain_shapes(g, phi, edges).items() if v)
            if isinstance(expected[0], type):
                outcomes[expected[3] or expected[0].__name__] += 1
            else:
                outcomes["shift" if len(edges) > 1 else "one-edge shift"] += 1
    assert min(shapes.values()) >= 20 and len(shapes) == 7, shapes
    assert min(outcomes.values()) >= 20 and len(outcomes) == 6, outcomes
