import random

import pytest

import listcolor as lc
from listcolor.errors import BoundViolationError, NotBipartiteError
from listcolor.lists import local_bound

from conftest import recompute_available


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
    assert local_bound(g, 0, "shannon") == 3
    assert local_bound(g, 0, "vizing") == 4
    assert local_bound(g, 0, "koenig") == 2


def test_check_bound_vizing_triangle_passes():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2, 3})] * 3)
    assert lc.check_bound(g, L, "vizing").ok


def test_check_bound_shannon_fails_everywhere():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2})] * 3)
    report = lc.check_bound(g, L, "shannon")
    assert not report.ok
    assert len(report.failures()) == 3  # bound 3 > 2 at every vertex


def test_check_bound_koenig_cycle():
    g = lc.Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    L = lc.ListAssignment(g, [frozenset({1, 2})] * 4)
    assert lc.check_bound(g, L, "koenig").ok


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
        lambda: local_bound(g, 0, "nope"),
        lambda: lc.check_bound(g, L, "nope"),
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
            assert lc.check_bound(g, L, mode).ok


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


def test_truncate_identity_when_small():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2, 3})] * 3)
    Lp = lc.truncate(g, L, [2, 2, 2], ell=5)
    # every common set has 3 <= 5 elements, so kept sets equal the common sets
    for e, (u, v) in enumerate(g.endpoints):
        assert Lp.lists[e] == L.common[u] | L.common[v]


def test_truncate_triangle_derived():
    # common sets {1,2,3}; keeping the 2 smallest gives {1,2} per vertex,
    # so every edge list and every common set becomes {1,2}
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2, 3})] * 3)
    Lp = lc.truncate(g, L, [2, 2, 2], ell=2)
    assert all(s == frozenset({1, 2}) for s in Lp.lists)
    for x in range(3):
        recomputed = frozenset.intersection(
            *[Lp.lists[e] for e in g.incidence[x]]
        )
        assert recomputed == Lp.common[x] == frozenset({1, 2})
        assert len(Lp.common[x]) == 2 >= 2


def test_truncate_precondition_violation():
    g = lc.Multigraph(2, [(0, 1)])
    L = lc.ListAssignment(g, [frozenset({1, 2})])
    with pytest.raises(BoundViolationError):
        lc.truncate(g, L, [3, 1], ell=4)  # c(0) = 3 > |common(0)| = 2
    with pytest.raises(BoundViolationError):
        lc.truncate(g, L, [2, 1], ell=1)  # c(0) = 2 > ell


def test_truncate_random_properties():
    rng = random.Random(11)
    for seed in range(40):
        g = lc.generate_random(
            rng.randint(2, 10), rng.randint(1, 5), rng.randint(1, 3),
            seed=seed, edges=rng.randint(1, 14),
        )
        lists = [
            frozenset(rng.sample(range(1, 15), rng.randint(3, 10)))
            for _ in range(g.m)
        ]
        L = lc.ListAssignment(g, lists)
        ell = rng.randint(1, 6)
        c = [rng.randint(0, min(len(L.common[x]), ell)) for x in range(g.n)]
        Lp = lc.truncate(g, L, c, ell)
        for e in range(g.m):
            assert Lp.lists[e] <= L.lists[e]
        for x in range(g.n):
            assert c[x] <= len(Lp.common[x]) <= 2 * ell
