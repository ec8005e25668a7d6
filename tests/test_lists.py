import random

import pytest

import listcolor as lc
from listcolor.errors import BoundViolationError, NotBipartiteError

from conftest import reference_bound


def test_common_colors_triangle():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(
        g, [frozenset({1, 2, 3}), frozenset({1, 2, 3}), frozenset({2, 3, 4})]
    )
    # vertex 0 is on edges 0 and 2
    assert L.common[0] == {2, 3}
    assert L.common[1] == {1, 2, 3}


def test_common_colors_uniform():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2, 3})] * 3)
    for x in range(3):
        assert L.common[x] == {1, 2, 3}


def test_common_sets_alike_from_shared_and_distinct_list_objects():
    rng = random.Random(5)
    g = lc.generate_random(8, 5, 2, seed=5, edges=16)
    pool = [frozenset(rng.sample(range(1, 9), 6)) for _ in range(3)]
    shared = [rng.choice(pool) for _ in range(g.m)]
    copies = [frozenset(set(s)) for s in shared]
    assert len({id(s) for s in copies}) == g.m > len({id(s) for s in shared})
    assert lc.ListAssignment(g, shared).common == lc.ListAssignment(g, copies).common


def test_common_colors_isolated_empty():
    g = lc.Multigraph(2, [])
    L = lc.ListAssignment(g, [])
    assert L.common[0] == frozenset()


def test_common_subset_of_incident_lists():
    rng = random.Random(7)
    for seed in range(20):
        g = lc.generate_random(8, 4, 2, seed=seed, edges=10)
        lists = [
            frozenset(rng.sample(range(1, 12), rng.randint(1, 8)))
            for _ in range(g.m)
        ]
        L = lc.ListAssignment(g, lists)
        for x in range(g.n):
            for e in g.incidence[x]:
                assert L.common[x] <= L.lists[e]


def test_bound_values():
    g = lc.Multigraph(2, [(0, 1), (0, 1)])
    for mode, bound in (("shannon", 3), ("vizing", 4), ("koenig", 2)):
        short = lc.ListAssignment(g, [frozenset(range(1, bound))] * 2)
        with pytest.raises(BoundViolationError) as info:
            lc.check_bound(g, short, mode)
        got = info.value
        assert (got.vertex, got.required, got.actual) == (0, bound, bound - 1)


def test_check_bound_vizing_triangle_passes():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2, 3})] * 3)
    assert lc.check_bound(g, L, "vizing") is None


def test_check_bound_shannon_fails_everywhere():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2})] * 3)
    with pytest.raises(BoundViolationError) as exc:
        lc.check_bound(g, L, "shannon")
    # bound 3 > 2 at every vertex; the lowest index is the one reported
    assert (exc.value.vertex, exc.value.required, exc.value.actual) == (0, 3, 2)


def test_check_bound_koenig_cycle():
    g = lc.Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    L = lc.ListAssignment(g, [frozenset({1, 2})] * 4)
    assert lc.check_bound(g, L, "koenig") is None


def test_check_bound_koenig_rejects_odd_cycle():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2, 3})] * 3)
    with pytest.raises(NotBipartiteError):
        lc.check_bound(g, L, "koenig")


def test_check_bound_rejects_explicit_mode():
    g = lc.Multigraph(2, [(0, 1)])
    L = lc.ListAssignment(g, [frozenset({1})])
    with pytest.raises(ValueError):
        lc.check_bound(g, L, "explicit")


def test_every_bound_entry_point_rejects_an_unknown_mode():
    g = lc.Multigraph(2, [(0, 1)])
    L = lc.ListAssignment(g, [frozenset({1})])
    calls = (
        lambda: lc.check_bound(g, L, "nope"),
        lambda: lc.check_bound(g, L, ["vizing"]),
        lambda: lc.generate_from_bounds(g, "nope"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^mode must be one of"):
            call()


def test_generate_from_bounds_digon_vizing():
    g = lc.Multigraph(2, [(0, 1), (0, 1)])
    L = lc.generate_from_bounds(g, "vizing")
    assert L.lists[0] == L.lists[1] == frozenset({1, 2, 3, 4})


def test_generate_from_bounds_triangle_shannon():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.generate_from_bounds(g, "shannon")
    assert all(s == frozenset({1, 2, 3}) for s in L.lists)


def test_generate_from_bounds_star_koenig():
    g = lc.Multigraph(4, [(0, 1), (0, 2), (0, 3)])
    L = lc.generate_from_bounds(g, "koenig")
    assert all(s == frozenset({1, 2, 3}) for s in L.lists)


def test_generate_from_bounds_always_passes_check():
    for seed in range(25):
        rng = random.Random(seed)
        bip = seed % 2 == 0
        g = lc.generate_random(
            rng.randint(2, 15), rng.randint(1, 6), rng.randint(1, 3),
            bipartite=bip, seed=seed, edges=rng.randint(0, 25),
        )
        for mode in ("shannon", "vizing") + (("koenig",) if bip else ()):
            L = lc.generate_from_bounds(g, mode)
            assert lc.check_bound(g, L, mode) is None


@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig"])
def test_bounds_of_all_vertices_are_local_bound_of_each(mode):
    # generate_from_bounds and check_bound find every bound in one pass;
    # their lists and refusals are those the definition gives vertex by vertex
    rng = random.Random(sum(map(ord, mode)))
    isolated = refused = 0
    for seed in range(60):
        n = rng.randint(2, 16)
        g = lc.generate_random(n, rng.randint(1, 5), rng.randint(1, 3),
                               bipartite=mode == "koenig", seed=seed,
                               edges=rng.randint(0, n))
        isolated += sum(not es for es in g.incidence)
        bounds = [reference_bound(g, x, mode) for x in range(g.n)]
        lists = [frozenset(range(1, max(bounds[u], bounds[v]) + 1)) for u, v in g.endpoints]
        assert list(lc.generate_from_bounds(g, mode).lists) == lists
        # drop colors at random, so that some vertices fall short of their bound
        lists = [s - {rng.randint(1, 6)} for s in lists]
        L = lc.ListAssignment(g, lists)
        short = [x for x in range(g.n) if len(L.common[x]) < bounds[x]]
        if not short:
            assert lc.check_bound(g, L, mode) is None
            continue
        x = short[0]
        with pytest.raises(BoundViolationError) as info:
            lc.check_bound(g, L, mode)
        got = info.value
        assert (got.vertex, got.required, got.actual) == (x, bounds[x], len(L.common[x]))
        refused += 1
    assert isolated > 50 and 10 < refused < 50


def test_lists_for_a_graph_of_another_size_are_refused():
    # a ListAssignment carries no graph, so its sizes are checked against g
    tri = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    others = [
        lc.Multigraph(2, [(0, 1)]),  # fewer vertices and edges
        lc.Multigraph(4, [(0, 1), (1, 2), (2, 3)]),  # more vertices
        lc.Multigraph(3, [(0, 1), (1, 2)]),  # fewer edges
    ]
    for h in others:
        L = lc.generate_from_bounds(h, "vizing")
        message = (f"lists are for {h.n} vertices and {h.m} edges,"
                   f" the graph has 3 and 3")
        with pytest.raises(ValueError, match=f"^{message}$"):
            lc.check_bound(tri, L, "vizing")
        with pytest.raises(ValueError, match=f"^{message}$"):
            lc.color_graph(tri, L, "vizing")


def test_generate_from_bounds_shares_one_list_per_length():
    g = lc.generate_random(12, 6, 3, seed=3, edges=30)
    L = lc.generate_from_bounds(g, "vizing")
    by_length = {}
    for s in L.lists:
        assert by_length.setdefault(len(s), s) is s
    assert len(by_length) < g.m


@pytest.mark.parametrize(
    "bad", [frozenset({1, 0}), frozenset({2, "3"}), frozenset({True, 2})]
)
def test_bad_color_names_first_edge_of_a_shared_list(bad):
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2), (0, 1)])
    good = frozenset({1, 2, 3})
    with pytest.raises(ValueError, match="^edge 1: "):
        lc.ListAssignment(g, [good, bad, good, bad])

