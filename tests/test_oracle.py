import random

import pytest

import listcolor as lc
from listcolor.errors import BoundViolationError, InputError


def test_triangle_two_colors_infeasible():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2})] * 3)
    assert lc.exhaustive_color(g, L) is None


def test_triangle_three_colors_found():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2, 3})] * 3)
    colors = lc.exhaustive_color(g, L)
    assert colors is not None
    assert sorted(colors) == [1, 2, 3]
    assert not lc.check_edge_colors(g, L, colors)


def test_digon_two_colors(digon):
    g, _ = digon
    L = lc.ListAssignment(g, [frozenset({1, 2})] * 2)
    assert lc.exhaustive_color(g, L) == [1, 2]


def test_limit_enforced():
    g = lc.Multigraph(12, [(i, i + 1) for i in range(11)])
    L = lc.generate_from_bounds(g, "vizing")
    with pytest.raises(InputError,
                       match=r"^instance has 11 edges, exhaustive search capped at 10$"):
        lc.exhaustive_color(g, L)
    assert lc.exhaustive_color(g, L, limit=11) is not None


def test_oracle_deterministic():
    g = lc.Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    L = lc.generate_from_bounds(g, "koenig")
    assert lc.exhaustive_color(g, L) == lc.exhaustive_color(g, L)


def test_agreement_with_engine_on_bound_instances():
    for seed in range(60):
        rng = random.Random(seed)
        g = lc.generate_random(6, 4, 2, seed=seed, edges=rng.randint(1, 8))
        for mode in ("shannon", "vizing"):
            L = lc.generate_from_bounds(g, mode)
            oracle = lc.exhaustive_color(g, L)
            assert oracle is not None
            assert not lc.check_edge_colors(g, L, oracle)
            phi, _ = lc.color_graph(g, L, mode)
            assert not lc.check_edge_colors(g, L, phi.color)


def test_absence_implies_bound_failure():
    # wherever the oracle finds nothing, no mode's bound held
    rng = random.Random(5)
    absent = 0
    for seed in range(80):
        g = lc.generate_random(5, 4, 2, seed=seed, edges=rng.randint(2, 7))
        if g.m == 0:
            continue
        lists = [
            frozenset(rng.sample(range(1, 6), rng.randint(1, 3)))
            for _ in range(g.m)
        ]
        L = lc.ListAssignment(g, lists)
        if lc.exhaustive_color(g, L) is not None:
            continue
        absent += 1
        modes = ["shannon", "vizing"] + (["koenig"] if g.bipartition() else [])
        for mode in modes:
            with pytest.raises(BoundViolationError):
                lc.check_bound(g, L, mode)
    assert absent > 5
