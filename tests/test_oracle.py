import pytest

import listcolor as lc
from listcolor.errors import InputError


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

