import random

import pytest

import listcolor as lc
from listcolor.errors import AvailabilityEmptyError, NotBipartiteError

from conftest import blank_edges, random_partial, setup_partial

AB = frozenset({1, 2})
ABC = frozenset({1, 2, 3})


def test_equal_minima_single_edge_path():
    g, L, phi = setup_partial(3, [(0, 1, None, AB), (1, 2, None, AB)])
    p = lc.koenig_path(phi, 0)
    assert p.edges == (0,)
    assert lc.resolve_path(phi, p) == p  # happy: the whole path
    assert phi.color[p.end] is not None
    assert phi.color[0] == 1


def test_four_cycle_path_ends_on_start_side():
    # colors 1 on (1,2) and 2 on (3,0); minima differ, walk stops at 2
    specs = [(0, 1, None, AB), (1, 2, 1, AB), (2, 3, None, AB), (3, 0, 2, AB)]
    g, L, phi = setup_partial(4, specs)
    p = lc.koenig_path(phi, 0)
    assert p.edges == (0, 1)
    assert p.vend == 2
    side = g.bipartition()
    assert side[p.vend] == side[0] and p.vend != 0
    assert lc.resolve_path(phi, p) == p  # happy: the whole path
    assert phi.color[p.end] is not None
    assert phi.verify() == []


def test_star_center_forces_two_edge_path():
    # edge stored as (1, 0) so the center is the second endpoint; its used
    # colors pull the walk through the center
    specs = [(1, 0, None, ABC), (0, 2, 1, ABC), (0, 3, 2, ABC)]
    g, L, phi = setup_partial(4, specs)
    p = lc.koenig_path(phi, 0)
    assert p.edges == (0, 1)
    assert lc.resolve_path(phi, p) == p  # happy: the whole path
    assert phi.color[p.end] is not None
    assert phi.verify() == []
    assert phi.blanks == 0  # the only blank edge got colored


def test_rejects_non_bipartite():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [ABC] * 3)
    phi = lc.PartialColoring(g, L)
    with pytest.raises(NotBipartiteError):
        lc.koenig_path(phi, 0)


def test_rejects_empty_availability():
    # vertex 0's single common color is already used there
    specs = [(0, 1, None, AB), (0, 2, 1, frozenset({1})), (0, 3, 2, AB)]
    g = lc.Multigraph(4, [(u, v) for u, v, *_ in specs])
    L = lc.ListAssignment(g, [s for *_, s in specs])
    phi = lc.PartialColoring(g, L)
    phi.assign(1, 1)
    phi.assign(2, 2)
    assert phi.available[0] == set()
    with pytest.raises(AvailabilityEmptyError):
        lc.koenig_path(phi, 0)


def test_parity_guarantee_random(rng):
    # on bipartite instances the path never closes a cycle, whatever the
    # partial coloring looks like
    built = 0
    for seed in range(120):
        g = lc.generate_random(10, 5, 2, bipartite=True, seed=seed, edges=16)
        L = lc.generate_from_bounds(g, "koenig")
        phi = random_partial(g, L, random.Random(seed), fill=0.7)
        for e in blank_edges(phi):
            u, v = g.endpoints[e]
            if not phi.available[u] or not phi.available[v]:
                continue
            p = lc.koenig_path(phi, e)
            assert p.vstart != p.vend
            built += 1
    assert built > 150


def test_engine_uses_only_paths_in_koenig_mode(rng):
    for seed in range(30):
        g = lc.generate_random(8, 4, 2, bipartite=True, seed=seed, edges=12)
        L = lc.generate_from_bounds(g, "koenig")
        phi, stats = lc.color_graph(g, L, "koenig")
        assert stats.fan_shifts == 0
        assert stats.happy_steps == g.m
        assert phi.verify() == []
