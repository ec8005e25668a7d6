import random

import pytest

import listcolor as lc
from listcolor import engine
from listcolor.chain import resolve_path
from listcolor.shannon import classify_shannon, shannon_fan

from conftest import (
    StepLog,
    blank_edges,
    check_certificate,
    live_state,
    random_partial,
    recompute_available,
    recompute_potential,
    recompute_used,
    reference_path,
    reference_shift,
    setup_partial,
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
    x, y, f = shannon_fan(phi, 0)
    assert f is None  # the fan is (0,)
    assert (x, y) == (0, 1)  # degree tie broken by index


def test_fan_two_edges_derived():
    # available at 1 = {4,5,6} = used at 0, so eta = 4 rides edge (0,2)
    g, L, phi = blocked_pivot_instance(
        z_edges=[(8, 1), (9, 2), (10, 3)], z_lists=[S6, S6, S6]
    )
    lc.check_bound(g, L, "shannon")
    assert recompute_available(g, L, phi.color)[1] == {4, 5, 6}
    assert recompute_used(g, phi.color)[0] == {4, 5, 6}
    x, y, f = shannon_fan(phi, 0)
    assert f == 1  # the fan is (0, 1)
    assert (x, y, g.other_end(f, x)) == (0, 1, 2)
    assert phi.color[f] == 4


def test_classify_blank_is_happy_edge(triangle):
    g, L = triangle
    phi = lc.PartialColoring(g, L)
    out = classify_shannon(phi, 0)
    assert out == ("happy-edge", None, None, True)
    assert phi.is_happy(0) == 1


def test_classify_case1_happy_fan():
    # far leaf keeps color 3 available and 3 is unused at the pivot
    g, L, phi = blocked_pivot_instance(
        z_edges=[(8, 1), (9, 2)], z_lists=[S6, S6]
    )
    lc.check_bound(g, L, "shannon")
    out = classify_shannon(phi, 0)
    branch, shift, _, _ = out
    assert step_kind(out) == "happy-fan"
    assert branch == "case1-happy-fan"
    # applying the fan and coloring its end keeps everything consistent
    end = shift.edges[-1]
    phi.apply_chain_shift(shift)
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
    lc.check_bound(g, L, "shannon")
    assert 4 not in L.common[2]
    out = classify_shannon(phi, 0)
    branch, shift, _, _ = out
    assert step_kind(out) == "content-fan"
    assert branch == "case2-content-fan"
    before = recompute_potential(g, L, phi.color)
    phi.apply_chain_shift(shift)
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
    lc.check_bound(g, L, "shannon")
    assert 4 in L.common[2]
    assert g.degree(2) == 3 < g.degree(1) == 4
    out = classify_shannon(phi, 0)
    branch, shift, _, _ = out
    assert step_kind(out) == "content-fan"
    assert branch == "case3-content-fan"
    before = recompute_potential(g, L, phi.color)
    phi.apply_chain_shift(shift)
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
    lc.check_bound(g, L, "shannon")
    # claim: the two availability sets intersect
    avail = recompute_available(g, L, phi.color)
    assert avail[1] & avail[2] == {5, 6}
    out = classify_shannon(phi, 0)
    _, _, path, _ = out
    assert step_kind(out) == "path-phi"
    # the path alternates alpha = 1 and beta = 5 in the current coloring
    assert path == reference_path(g, L, phi.color, 0, 1, 5)
    assert path.edges == (0, 4)
    assert not path.closed
    assert resolve_path(phi, path) == path.edges  # happy: the whole path
    assert phi.color[path.edges[-1]] is not None
    assert phi.verify() == []


def test_classify_final_path_under_shifted_coloring():
    # the case-4 fallback walks the shifted coloring through an overlay: it
    # finds the path the definition gives in the shifted colors, and
    # mutates nothing before the shift is committed
    g, L, phi = final_case_instance(cyclic=True)
    lc.check_bound(g, L, "shannon")
    before = live_state(phi)
    out = classify_shannon(phi, 0)
    branch, shift, path, _ = out
    assert step_kind(out) == "path-psi" and branch == "final-path-psi"
    assert live_state(phi) == before
    assert shift.edges == (0, 1)
    # the path alternates alpha = 1 and beta = 5 in the shifted coloring
    psi = reference_shift(g, L, phi.color, shift.edges)
    assert psi != phi.color
    assert path == reference_path(g, L, psi, shift.edges[-1], 1, 5)
    assert path.edges == (1, 7)  # built in the shifted coloring
    a, _ = phi.potential()
    phi.apply_chain_shift(shift)
    assert phi.potential()[0] == a
    assert resolve_path(phi, path) == path.edges  # happy: the whole path
    assert phi.color[path.edges[-1]] is not None
    assert phi.verify() == []
    assert phi.blanks == 0


def test_classified_final_paths_match_walks():
    # a final-case verdict carries the path the definition gives with the
    # classifier's alpha and beta: in phi's colors for final-path-phi, and
    # in the shifted colors for final-path-psi; the live coloring stays
    # unchanged.
    # Near-full partials at Delta = 3 under bound lists reach the final case
    # at about one blank edge in eight
    walks = {"final-path-phi": 0, "final-path-psi": 0}
    for seed in range(500):
        g = lc.generate_random(7, 3, 1, seed=seed, edges=10)
        L = lc.generate_from_bounds(g, "shannon")
        phi = random_partial(g, L, random.Random(seed), fill=0.95)
        for e in blank_edges(phi):
            before = live_state(phi)
            branch, shift, path, _ = classify_shannon(phi, e)
            assert live_state(phi) == before
            if branch not in walks:
                continue
            x, y, f = shannon_fan(phi, e)
            z = g.other_end(f, x)
            avail = recompute_available(g, L, phi.color)
            alpha = min(avail[x])
            beta = min(avail[y] & avail[z])
            if shift is None:
                assert path == reference_path(g, L, phi.color, e, alpha, beta)
            else:
                psi = reference_shift(g, L, phi.color, shift.edges)
                assert path == reference_path(g, L, psi, shift.edges[-1], alpha, beta)
            walks[branch] += 1
    assert walks["final-path-phi"] >= 5 and walks["final-path-psi"] >= 5


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
    # or by resolve_path, and committed without a second check; the step's
    # counters match its trace records
    g, L, phi = make()
    log = StepLog(monkeypatch)
    records, stats, start = [], lc.RunStats(), list(phi.color)
    engine.augment_once(phi, 0, "shannon", stats, trace=records.append)
    assert records[-1].branch == f"shannon-{branch}"
    assert [(len(s.checked), len(s.committed)) for s in log.steps] == [(commits, commits)]
    check_certificate(g, L, records, stats, phi.color, start)
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
            out = classify_shannon(phi, e)
            dispatched += 1
            assert type(out) is tuple and len(out) == 4
            step_kind(out)  # one of the five kinds
    assert dispatched > 200
