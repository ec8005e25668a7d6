import random

import pytest

import listcolor as lc
from listcolor.errors import LoopEdgeError, VertexOutOfRangeError


def test_build_triangle():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3
    assert [g.degree(x) for x in range(3)] == [2, 2, 2]
    assert g.multiplicity(0, 1) == 1
    assert g.mu_vertex(0) == 1
    assert g.max_degree() == 2


def test_build_digon():
    g = lc.Multigraph(2, [(0, 1), (0, 1)])
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(1, 0) == 2
    assert g.degree(0) == g.degree(1) == 2
    assert g.mu_vertex(0) == 2
    assert g.max_degree() == 2


def test_loop_rejected():
    with pytest.raises(LoopEdgeError):
        lc.Multigraph(2, [(0, 0)])


def test_vertex_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        lc.Multigraph(2, [(0, 2)])
    g = lc.Multigraph(2, [(0, 1)])
    with pytest.raises(VertexOutOfRangeError):
        g.degree(5)


def test_isolated_vertex():
    g = lc.Multigraph(1, [])
    assert g.degree(0) == 0
    assert g.mu_vertex(0) == 0
    assert g.max_degree() == 0


def test_self_multiplicity_zero():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.multiplicity(1, 1) == 0


def test_edge_order_is_identity():
    edges = [(2, 0), (0, 1), (2, 1), (0, 1)]
    g = lc.Multigraph(3, edges)
    assert g.endpoints == tuple(edges)
    assert sorted(g.incidence[0]) == [0, 1, 3]


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
    g = lc.Multigraph(5, [(0, 1), (3, 4)])
    side = g.bipartition()
    assert side is not None
    assert side[0] != side[1] and side[3] != side[4]


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
        for x in range(g.n):
            assert g.mu_vertex(x) <= g.degree(x)
            for y in range(g.n):
                assert g.multiplicity(x, y) == g.multiplicity(y, x)
        side = g.bipartition()
        if side is not None:
            assert all(side[u] != side[v] for u, v in g.endpoints)
