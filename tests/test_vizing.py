import itertools
import random

import listcolor as lc
from listcolor.chain import resolve_path
from listcolor.vizing import classify_vizing, vizing_fan

from conftest import (
    adversarial_lists,
    blank_edges,
    random_chain,
    random_partial,
    random_vizing_partials,
    recompute_available,
    recompute_potential,
    reference_path,
    reference_shift,
    reference_vizing_fan,
    setup_partial,
    shift_answer,
    shift_change,
    step_kind,
)

S6 = frozenset(range(1, 7))


def test_blank_digon_single_edge_happy(digon):
    g, L = digon
    phi = lc.PartialColoring(g, L)
    fan, beta, j = vizing_fan(phi, 0, 0)
    assert fan == (0,)
    assert beta == 1
    assert j == 1 == len(fan)


def test_fan_closes_on_earlier_index():
    # leaf 3 offers color 1 again, which is edge 1's color: j = 1 < length
    g, L, phi = setup_partial(
        4, [(0, 1, None, S6), (0, 2, 1, S6), (0, 3, 2, S6)]
    )
    lc.check_bound(g, L, "vizing")
    fan, beta, j = vizing_fan(phi, 0, 0)
    assert fan == (0, 1, 2)
    assert [g.other_end(f, 0) for f in fan] == [1, 2, 3]
    assert beta == 1
    assert j == 1
    # output contract: beta available at the end leaf of both fan and prefix
    avail = recompute_available(g, L, phi.color)
    assert beta in avail[g.other_end(fan[-1], 0)]
    assert beta in avail[g.other_end(fan[j - 1], 0)]


def test_fan_never_returns_index_zero(rng):
    for seed in range(60):
        g = lc.generate_random(8, 5, 3, seed=seed, edges=14)
        L = lc.generate_from_bounds(g, "vizing")
        phi = random_partial(g, L, random.Random(seed), fill=0.8)
        avail = recompute_available(g, L, phi.color)
        for e in blank_edges(phi):
            u, _ = g.endpoints[e]
            fan, beta, j = vizing_fan(phi, e, u)
            assert 1 <= j <= len(fan)
            assert len(fan) <= g.degree(u)
            assert beta in avail[g.other_end(fan[-1], u)]
            assert beta in avail[g.other_end(fan[j - 1], u)]


def test_classify_happy_two_edge_fan():
    g, L, phi = setup_partial(3, [(0, 1, None, S6), (0, 2, 1, S6)])
    out = classify_vizing(phi, 0, 0)
    _, shift, _, _ = out
    assert step_kind(out) == "happy-fan"
    end = shift.edges[-1]
    phi.apply_chain_shift(shift)
    c = phi.is_happy(end)
    assert c == 2
    phi.assign(end, c)
    assert phi.verify() == []


def test_classify_content_full_fan_derived():
    # blanking the fan's end edge returns no availability at vertex 3
    # because color 2 is outside its common set, so the total drops
    T = frozenset({1, 3, 4, 5, 6})
    g, L, phi = setup_partial(
        5,
        [(0, 1, None, S6), (0, 2, 1, S6), (0, 3, 2, S6), (3, 4, None, T)],
    )
    lc.check_bound(g, L, "vizing")
    assert 2 not in L.common[3]
    out = classify_vizing(phi, 0, 0)
    branch, shift, _, _ = out
    assert step_kind(out) == "content-fan"
    assert branch == "content-fan-full"
    before = recompute_potential(g, L, phi.color)
    phi.apply_chain_shift(shift)
    after = recompute_potential(g, L, phi.color)
    assert after[0] == before[0] - 1
    assert phi.verify() == []


def test_classify_path_under_shifted_fan():
    g, L, phi = setup_partial(
        4, [(0, 1, None, S6), (0, 2, 1, S6), (0, 3, 2, S6)]
    )
    out = classify_vizing(phi, 0, 0)
    branch, shift, path, _ = out
    assert step_kind(out) == "path-psi"
    assert branch == "path-psi-full"
    # the path alternates alpha = 3 and beta = 1 in the shifted coloring
    psi = reference_shift(g, L, phi.color, shift.edges)
    assert path == reference_path(g, L, psi, shift.edges[-1], 3, 1)
    a, _ = phi.potential()
    phi.apply_chain_shift(shift)
    assert phi.potential()[0] == a
    assert resolve_path(phi, path) == path.edges  # happy: the whole path
    assert phi.color[path.edges[-1]] is not None
    assert phi.verify() == []


def test_engine_reaches_prefix_branches():
    # seeds found by sweeping the deterministic engine; they pin coverage
    # of the prefix fan shift and the prefix path fallback
    def run(seed):
        rng = random.Random(seed)
        n = rng.randint(3, 10)
        g = lc.generate_random(
            n, rng.randint(2, 10), rng.randint(1, 5),
            seed=seed, edges=rng.randint(2, 30),
        )
        L = lc.generate_from_bounds(g, "vizing")
        branches = set()
        phi, _ = lc.color_graph(g, L, "vizing", trace=lambda r: branches.add(r.branch))
        assert phi.verify() == []
        return branches

    assert "vizing-content-fan-prefix" in run(53)
    assert "vizing-path-psi-prefix" in run(48)
    assert {"vizing-content-fan-full", "vizing-happy-fan"} <= run(0)
    assert "vizing-path-psi-full" in run(6)


def fan_shifts(n, delta, m, fill, seeds):
    """Shift each vizing fan and its prefix by the reference on random
    partials, asserting that the shift is proper and that the availability
    total does not rise; returns the number of shifts."""
    shifts = 0
    for seed in range(seeds):
        g = lc.generate_random(n, delta, 3, seed=seed, edges=m)
        L = lc.generate_from_bounds(g, "vizing")
        phi = random_partial(g, L, random.Random(seed), fill=fill)
        a = recompute_potential(g, L, phi.color)[0]
        for e in blank_edges(phi):
            u, _ = g.endpoints[e]
            fan, _, j = vizing_fan(phi, e, u)
            for cand in (fan, fan[:j]):
                shifted = reference_shift(g, L, phi.color, cand)
                assert isinstance(shifted, list), (cand, shifted)
                assert recompute_potential(g, L, shifted)[0] <= a
                shifts += 1
    return shifts


def test_fan_shifts_always_proper():
    # both the fan and its prefix shift cleanly wherever the fan closes
    assert fan_shifts(8, 5, 14, 0.8, 50) > 250


def test_availability_total_never_rises_after_fan_shift():
    assert fan_shifts(9, 6, 18, 0.85, 40) > 150


def repolling_partials(count):
    """Random partials on few vertices with mu up to 4, so parallel edges
    often bring a fan back to a leaf it polled before."""
    for seed in range(count):
        rng = random.Random(seed)
        g = lc.generate_random(rng.randint(3, 6), rng.randint(4, 10), 4,
                               seed=seed, edges=rng.randint(8, 24))
        for L in (lc.generate_from_bounds(g, "vizing"),
                  adversarial_lists(g, "vizing", rng)):
            yield g, L, random_partial(g, L, rng, fill=rng.choice((0.5, 0.8, 0.95)))


def fan_counts(partials):
    """Check every fan of the partials against the reference: the fan is the
    reference's, and it reads the common mask of no vertex the reference did
    not poll, each a leaf of x's edges.  Returns how many fans there were,
    how many leaves were polled again and how many fans polled fewer
    vertices than x has neighbours."""
    fans = repolled = fewer = 0
    for g, L, phi in partials:
        masks = phi.common_mask
        for e in blank_edges(phi):
            for x in g.endpoints[e]:
                ref, polls = reference_vizing_fan(g, L, phi.color, e, x)
                # a mask the reference did not read is None: reading it raises
                phi.common_mask = [m if z in polls else None for z, m in enumerate(masks)]
                try:
                    assert vizing_fan(phi, e, x) == ref
                finally:
                    phi.common_mask = masks
                leaves = {g.other_end(f, x) for f in g.incidence[x]}
                assert set(polls) <= leaves
                fans += 1
                repolled += sum(n > 1 for n in polls.values())
                fewer += len(polls) < len(leaves)
    return fans, repolled, fewer


def test_lazy_fan_matches_eager_reference():
    # the fan that reads a leaf's mask only when it polls the leaf finds the
    # fan of the reference, which computes every vertex's availability up
    # front, and reads fewer masks than x has neighbours somewhere
    fans, _, fewer = fan_counts(random_vizing_partials(60))
    assert fans > 500 and fewer > 0


def test_copy_free_polls_match_copying_reference():
    # polling a leaf's mask in place finds the fan of the reference, which
    # polls a sorted copy of each leaf's availability, also where parallel
    # edges bring the fan back to a leaf it polled before
    fans, repolled, _ = fan_counts(
        itertools.chain(random_vizing_partials(60), repolling_partials(60)))
    assert fans > 1000 and repolled >= 100


def test_check_shift_raises_like_replay():
    # shifts replayed on one coloring, each drawn from edge orders around a
    # pivot, where parallel edges may sit next to each other, and random
    # chains: on the caches the commits before it left, every check refuses
    # as reference_shift does, or gives its delta and its shifted colors
    raised = committed = 0
    for g, L, phi in random_vizing_partials(40):
        rng = random.Random(g.m)
        for _ in range(30):
            x = rng.randrange(g.n)
            inc = g.incidence[x]
            if inc and rng.random() < 0.5:
                edges = tuple(rng.sample(inc, rng.randint(1, len(inc))))
            else:
                edges = random_chain(g, rng, phi.color)
            expected = reference_shift(g, L, phi.color, edges)
            answer = shift_answer(phi, edges)
            if not isinstance(expected, list):
                assert answer == expected, edges
                raised += 1
                continue
            assert answer.delta == shift_change(g, L, phi.color, edges)
            phi.apply_chain_shift(answer)
            assert phi.color == expected
            committed += 1
        assert phi.verify() == []
    assert raised > 1000 and committed > 500
