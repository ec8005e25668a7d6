import random

import pytest

import listcolor as lc
from listcolor.errors import InputError

from conftest import multiplicities


def test_build_triangle():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3
    assert [g.degree(x) for x in range(3)] == [2, 2, 2]
    assert multiplicities(g) == {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    assert g.mu_vertex(0) == 1
    assert g.max_degree() == 2


def test_build_digon():
    g = lc.Multigraph(2, [(0, 1), (0, 1)])
    assert multiplicities(g) == {(0, 1): 2}
    assert g.degree(0) == g.degree(1) == 2
    assert g.mu_vertex(0) == 2
    assert g.max_degree() == 2


def test_loop_rejected():
    with pytest.raises(InputError, match=r"^loop edge at vertex 0$"):
        lc.Multigraph(2, [(0, 0)])


def test_vertex_out_of_range():
    with pytest.raises(InputError, match=r"^vertex 2 out of range \[0, 2\)$"):
        lc.Multigraph(2, [(0, 2)])
    g = lc.Multigraph(2, [(0, 1)])
    with pytest.raises(InputError, match=r"^vertex 5 out of range \[0, 2\)$"):
        g.degree(5)


def test_isolated_vertex():
    g = lc.Multigraph(1, [])
    assert g.degree(0) == 0
    assert g.mu_vertex(0) == 0
    assert g.max_degree() == 0


def test_edge_order_is_identity():
    edges = [(2, 0), (0, 1), (2, 1), (0, 1)]
    g = lc.Multigraph(3, edges)
    assert g.endpoints == tuple(edges)
    assert sorted(g.incidence[0]) == [0, 1, 3]


def test_tuple_pairs_are_kept_and_other_pairs_stored_as_plain_tuples():
    class Pair(tuple):
        pass

    pairs = [(0, 1), (1000, 2), [2, 0], Pair((0, 2)), iter((1, 0))]
    g = lc.Multigraph(1001, pairs)
    assert g.endpoints[0] is pairs[0] and g.endpoints[1] is pairs[1]
    assert g.endpoints[2:] == ((2, 0), (0, 2), (1, 0))
    assert {type(pair) for pair in g.endpoints} == {tuple}


def test_bipartition_even_cycle():
    g = lc.Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    side = g.bipartition()
    assert side is not None
    assert side[0] == side[2] != side[1] == side[3]


def test_bipartition_triangle_absent():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.bipartition() is None


def test_bipartition_digon():
    g = lc.Multigraph(2, [(0, 1), (0, 1)])
    side = g.bipartition()
    assert side is not None and side[0] != side[1]


def test_bipartition_disconnected():
    g = lc.Multigraph(6, [(1, 0), (3, 4), (5, 4)])
    # each component's lowest vertex is on side 0, and so is isolated 2
    assert g.bipartition() == [0, 1, 0, 0, 1, 0]


def test_random_graph_invariants():
    for seed in range(30):
        rng = random.Random(seed)
        g = lc.generate_random(
            rng.randint(2, 20),
            rng.randint(1, 8),
            rng.randint(1, 4),
            seed=seed,
            edges=rng.randint(0, 40),
        )
        assert sum(g.degree(x) for x in range(g.n)) == 2 * g.m
        assert g.max_degree() == max((g.degree(x) for x in range(g.n)), default=0)
        mult = multiplicities(g)
        for x in range(g.n):
            assert g.mu_vertex(x) <= g.degree(x)
            at_x = [k for pair, k in mult.items() if x in pair]
            assert g.mu_vertex(x) == max(at_x, default=0)
        side = g.bipartition()
        if side is not None:
            assert all(side[u] != side[v] for u, v in g.endpoints)
