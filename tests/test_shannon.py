import random

import pytest

import listcolor as lc
from listcolor import engine
from listcolor.chain import Step

from conftest import (
    ShiftLog,
    blank_edges,
    random_partial,
    recompute_potential,
    setup_partial,
    shifted_copy,
    step_kind,
)

S6 = frozenset(range(1, 7))
S7 = frozenset({1, 2, 4, 5, 6, 7})


def blocked_pivot_instance(z_edges, z_lists, x_lists=S6, y_colors=(1, 2, 3)):
    """Blank edge (0,1); pivot 0 uses {4,5,6}, vertex 1 uses y_colors, so
    everything available at 1 is used at 0 and the fan must grow."""
    specs = [
        (0, 1, None, x_lists),
        (0, 2, 4, x_lists),
        (0, 3, 5, x_lists),
        (0, 4, 6, x_lists),
        (1, 5, y_colors[0], x_lists),
        (1, 6, y_colors[1], x_lists),
        (1, 7, y_colors[2], x_lists),
    ]
    for i, (w, c) in enumerate(z_edges):
        specs.append((2, w, c, z_lists[i]))
    return setup_partial(8 + len(z_edges), specs)


def test_fan_single_edge_on_blank(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    fan = lc.shannon_fan(phi, 0)
    assert fan.edges == (0,)
    assert fan.vertices == (0, 1)  # degree tie broken by index


def test_fan_two_edges_derived():
    # available at 1 = {4,5,6} = used at 0, so eta = 4 rides edge (0,2)
    g, L, phi = blocked_pivot_instance(
        z_edges=[(8, 1), (9, 2), (10, 3)], z_lists=[S6, S6, S6]
    )
    assert lc.check_bound(g, L, "shannon").ok
    assert phi.available[1] == {4, 5, 6}
    assert set(phi.used_edge[0].keys()) == {4, 5, 6}
    fan = lc.shannon_fan(phi, 0)
    assert fan.edges == (0, 1)
    assert fan.vertices == (0, 1, 2)
    assert phi.color[fan.edges[1]] == min(phi.available[1]) == 4


def test_classify_blank_is_happy_edge(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    out = lc.classify_shannon(phi, 0)
    assert out == Step("happy-edge", happy=True)
    assert phi.is_happy(0) == 1


def test_classify_case1_happy_fan():
    # far leaf keeps color 3 available and 3 is unused at the pivot
    g, L, phi = blocked_pivot_instance(
        z_edges=[(8, 1), (9, 2)], z_lists=[S6, S6]
    )
    assert lc.check_bound(g, L, "shannon").ok
    out = lc.classify_shannon(phi, 0)
    assert step_kind(out) == "happy-fan"
    assert out.branch == "case1-happy-fan"
    # applying the fan and coloring its end keeps everything consistent
    end = out.shift.edges[-1]
    phi.apply_chain_shift(out.shift)
    c = phi.is_happy(end)
    assert c == 3
    phi.assign(end, c)
    assert phi.verify() == []


def test_classify_case2_content():
    # shifted color 4 is outside the far leaf's common set {1,2,5,6}
    T = frozenset({1, 2, 5, 6})
    g, L, phi = blocked_pivot_instance(
        z_edges=[(8, 1), (9, 2)], z_lists=[T, T]
    )
    assert lc.check_bound(g, L, "shannon").ok
    assert 4 not in L.common[2]
    out = lc.classify_shannon(phi, 0)
    assert step_kind(out) == "content-fan"
    assert out.branch == "case2-content-fan"
    before = recompute_potential(g, L, phi.color)
    phi.apply_chain_shift(out.shift)
    after = recompute_potential(g, L, phi.color)
    assert after[0] == before[0] - 1  # availability total drops by one
    assert after < before
    assert phi.verify() == []


def test_classify_case3_content_degree_drop():
    # far leaf has smaller degree than the near leaf; 4 stays in its set
    T = frozenset({1, 2, 4, 5})
    g, L, phi = blocked_pivot_instance(
        z_edges=[(8, 1), (9, 2)],
        z_lists=[T, T],
        x_lists=S7,
        y_colors=(1, 2, 7),
    )
    assert lc.check_bound(g, L, "shannon").ok
    assert 4 in L.common[2]
    assert g.degree(2) == 3 < g.degree(1) == 4
    out = lc.classify_shannon(phi, 0)
    assert step_kind(out) == "content-fan"
    assert out.branch == "case3-content-fan"
    before = recompute_potential(g, L, phi.color)
    phi.apply_chain_shift(out.shift)
    after = recompute_potential(g, L, phi.color)
    assert after[0] == before[0]  # availability unchanged
    assert after[1] == before[1] - 1  # degree-weighted blanks drop
    assert phi.verify() == []


def final_case_instance(cyclic: bool):
    # three used colors at the far leaf too, so both availabilities sit in
    # used(0); moving the pivot's 5-edge onto the walk closes the cycle
    second = (0, 5, 5, S6) if cyclic else (0, 3, 5, S6)
    specs = [
        (0, 1, None, S6),
        (0, 2, 4, S6),
        second,
        (0, 4, 6, S6),
        (1, 5, 1, S6),
        (1, 6, 2, S6),
        (1, 7, 3, S6),
        (2, 8, 1, S6),
        (2, 9, 2, S6),
        (2, 10, 3, S6),
    ]
    return setup_partial(11, specs)


def test_classify_final_path_under_current_coloring():
    g, L, phi = final_case_instance(cyclic=False)
    assert lc.check_bound(g, L, "shannon").ok
    # claim: the two availability sets intersect
    assert phi.available[1] & phi.available[2] == {5, 6}
    out = lc.classify_shannon(phi, 0)
    assert step_kind(out) == "path-phi"
    # the path alternates alpha = 1 and beta = 5 in the current coloring
    assert out.path == lc.alternating_path(phi, 0, 1, 5)
    assert out.path.edges == (0, 4)
    assert out.path.vstart != out.path.vend
    assert lc.resolve_path(phi, out.path) == out.path  # happy: the whole path
    assert phi.color[out.path.end] is not None
    assert phi.verify() == []


def test_classify_final_path_under_shifted_coloring():
    g, L, phi = final_case_instance(cyclic=True)
    assert lc.check_bound(g, L, "shannon").ok
    out = lc.classify_shannon(phi, 0)
    assert step_kind(out) == "path-psi"
    assert out.shift.edges == (0, 1)
    # the path alternates alpha = 1 and beta = 5 in the shifted coloring
    psi = shifted_copy(phi, lc.Chain(out.shift.edges))
    assert out.path == lc.alternating_path(psi, 1, 1, 5)
    assert out.path.edges == (1, 7)  # built in the shifted coloring
    before = phi.potential()
    phi.apply_chain_shift(out.shift)
    assert phi.potential().a == before.a
    assert lc.resolve_path(phi, out.path) == out.path  # happy: the whole path
    assert phi.color[out.path.end] is not None
    assert phi.verify() == []
    assert phi.blanks == 0


def test_final_path_under_shifted_coloring_leaves_phi_untouched():
    # the case-4 fallback walks the shifted coloring through an overlay: it
    # finds the path a walk in a shifted copy finds, and mutates nothing
    g, L, phi = final_case_instance(cyclic=True)

    def state():
        return (list(phi.color), [dict(d) for d in phi.used_edge],
                [set(s) for s in phi.available], phi.potential(), phi.blanks)

    before = state()
    out = lc.classify_shannon(phi, 0)
    assert step_kind(out) == "path-psi" and out.branch == "final-path-psi"
    assert state() == before
    psi = shifted_copy(phi, lc.Chain(out.shift.edges))
    assert out.path == lc.alternating_path(psi, out.shift.edges[-1], 1, 5)
    assert psi.color != phi.color


@pytest.mark.parametrize("make, branch, commits", [
    (lambda: blocked_pivot_instance([(8, 1), (9, 2)], [S6, S6]), "case1-happy-fan", 1),
    (lambda: blocked_pivot_instance([(8, 1), (9, 2)], [frozenset({1, 2, 5, 6})] * 2),
     "case2-content-fan", 1),
    (lambda: blocked_pivot_instance([(8, 1), (9, 2)], [frozenset({1, 2, 4, 5})] * 2,
                                    x_lists=S7, y_colors=(1, 2, 7)),
     "case3-content-fan", 1),
    (lambda: final_case_instance(cyclic=False), "final-path-phi", 1),
    (lambda: final_case_instance(cyclic=True), "final-path-psi", 2),
])
def test_deep_cases_check_each_shift_once(make, branch, commits, monkeypatch):
    # the fan or path each case commits is checked once, by the classifier
    # or by resolve_path, and committed without a second check
    g, L, phi = make()
    log = ShiftLog(monkeypatch)
    branches = []
    engine.augment_once(phi, 0, "shannon", lc.RunStats(), trace=branches.append)
    assert branches[-1].branch == f"shannon-{branch}"
    assert log.checks == log.commits == commits
    assert phi.verify() == []


def test_intersection_claim_on_random_final_cases(rng):
    # wherever the dispatcher reaches the final case, the claim held
    # (classify raises otherwise); count that runs do exercise the dispatcher
    dispatched = 0
    for seed in range(150):
        g = lc.generate_random(8, 6, 3, seed=seed, edges=16)
        L = lc.generate_from_bounds(g, "shannon")
        phi = random_partial(g, L, random.Random(seed), fill=0.85)
        for e in blank_edges(phi):
            out = lc.classify_shannon(phi, e)
            dispatched += 1
            assert isinstance(out, Step)
            step_kind(out)  # one of the five kinds
    assert dispatched > 200
