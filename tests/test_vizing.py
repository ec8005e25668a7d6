import itertools
import random

import pytest

import listcolor as lc
from listcolor.chain import Chain
from listcolor.errors import (
    InternalAssertionError,
    NotShiftableError,
    PreconditionViolatedError,
)

from conftest import (
    available,
    adversarial_lists,
    blank_edges,
    random_chain,
    random_partial,
    random_vizing_partials,
    rebuilt,
    recompute_potential,
    replay_shift,
    setup_partial,
    shift_change,
    shifted_copy,
    step_kind,
)

S6 = frozenset(range(1, 7))


def test_blank_digon_single_edge_happy(digon):
    g, L = digon
    phi = lc.PartialColoring(g, L)
    fan, beta, j = lc.vizing_fan(phi, 0, 0)
    assert fan.edges == (0,)
    assert beta == 1
    assert j == 1 == len(fan.edges)


def test_fan_closes_on_earlier_index():
    # leaf 3 offers color 1 again, which is edge 1's color: j = 1 < length
    g, L, phi = setup_partial(
        4, [(0, 1, None, S6), (0, 2, 1, S6), (0, 3, 2, S6)]
    )
    lc.check_bound(g, L, "vizing")
    fan, beta, j = lc.vizing_fan(phi, 0, 0)
    assert fan.edges == (0, 1, 2)
    assert fan.vertices == (0, 1, 2, 3)
    assert beta == 1
    assert j == 1
    # output contract: beta available at the end leaf of both fan and prefix
    assert beta in available(phi, fan.vertices[-1])
    assert beta in available(phi, fan.prefix(j).vertices[-1])


def test_fan_never_returns_index_zero(rng):
    for seed in range(60):
        g = lc.generate_random(8, 5, 3, seed=seed, edges=14)
        L = lc.generate_from_bounds(g, "vizing")
        phi = random_partial(g, L, random.Random(seed), fill=0.8)
        for e in blank_edges(phi):
            u, _ = g.endpoints[e]
            fan, beta, j = lc.vizing_fan(phi, e, u)
            assert 1 <= j <= len(fan.edges)
            assert len(fan.edges) <= g.degree(u)
            assert beta in available(phi, fan.vertices[-1])
            assert beta in available(phi, fan.prefix(j).vertices[-1])


def test_classify_happy_two_edge_fan():
    g, L, phi = setup_partial(3, [(0, 1, None, S6), (0, 2, 1, S6)])
    out = lc.classify_vizing(phi, 0, 0)
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
    out = lc.classify_vizing(phi, 0, 0)
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
    out = lc.classify_vizing(phi, 0, 0)
    branch, shift, path, _ = out
    assert step_kind(out) == "path-psi"
    assert branch == "path-psi-full"
    # the path alternates alpha = 3 and beta = 1 in the shifted coloring
    psi = shifted_copy(phi, lc.Chain(shift.edges))
    assert path == lc.alternating_path(psi, shift.edges[-1], 3, 1)
    a, _ = phi.potential()
    phi.apply_chain_shift(shift)
    assert phi.potential()[0] == a
    assert lc.resolve_path(phi, path) == path  # happy: the whole path
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


def test_fan_shifts_always_proper(rng):
    # both the fan and its prefix shift cleanly wherever the fan closes
    for seed in range(50):
        g = lc.generate_random(8, 5, 3, seed=seed, edges=14)
        L = lc.generate_from_bounds(g, "vizing")
        phi = random_partial(g, L, random.Random(seed), fill=0.8)
        for e in blank_edges(phi):
            u, _ = g.endpoints[e]
            fan, _, j = lc.vizing_fan(phi, e, u)
            for cand in (fan, fan.prefix(j)):
                snap = shifted_copy(phi, cand)  # raises NotShiftableError if improper
                assert snap.verify() == []
                assert snap.potential()[0] <= phi.potential()[0]


def test_availability_total_never_rises_after_fan_shift(rng):
    for seed in range(40):
        g = lc.generate_random(9, 6, 3, seed=seed, edges=18)
        L = lc.generate_from_bounds(g, "vizing")
        phi = random_partial(g, L, random.Random(seed), fill=0.85)
        for e in blank_edges(phi):
            u, _ = g.endpoints[e]
            fan, _, _ = lc.vizing_fan(phi, e, u)
            shifted = shifted_copy(phi, fan)
            a_before = recompute_potential(g, L, phi.color)[0]
            a_after = recompute_potential(g, L, shifted.color)[0]
            assert a_after <= a_before


class ReadLog(list):
    """Common masks that record which vertices' masks were read."""

    def __init__(self, sets):
        super().__init__(sets)
        self.read = set()

    def __getitem__(self, z):
        self.read.add(z)
        return super().__getitem__(z)


def eager_vizing_fan(phi, e, x, read):
    """The fan loop with every neighbour's working set copied up front;
    ``read`` collects the vertices whose availability it copies."""
    g = phi.g
    y = g.other_end(e, x)
    beta_sets = {z: available(phi, z) for z in g.neighbors(x)}
    read.update(beta_sets)
    nbr = dict(phi.used_edge[x])
    index = {e: 0}
    edges = [e]
    leaves = [y]
    k = 0
    while k < g.degree(x):
        working = beta_sets[leaves[-1]]
        eta = min(working)
        working.remove(eta)
        if eta not in phi.used_edge[x]:
            return Chain(tuple(edges), (x, *leaves)), eta, k + 1
        k += 1
        ek = nbr[eta]
        if ek in index:
            return Chain(tuple(edges), (x, *leaves)), eta, index[ek]
        index[ek] = k
        edges.append(ek)
        leaves.append(g.other_end(ek, x))
    raise InternalAssertionError("fan construction exhausted the pivot's degree")


def test_lazy_fan_matches_eager_reference():
    # the lazy fan finds the eager fan and reads the availability of no
    # vertex the eager loop did not copy, and of fewer entries somewhere
    fans = saved = 0
    for g, L, phi in random_vizing_partials(60):
        common_mask = phi.common_mask
        for e in blank_edges(phi):
            for x in g.endpoints[e]:
                eager_read = set()
                ref = eager_vizing_fan(phi, e, x, eager_read)
                phi.common_mask = log = ReadLog(common_mask)
                try:
                    res = lc.vizing_fan(phi, e, x)
                finally:
                    phi.common_mask = common_mask
                assert res == ref
                assert g.other_end(e, x) in log.read
                assert log.read <= eager_read
                lazy = sum(len(available(phi, z)) for z in log.read)
                eager = sum(len(available(phi, z)) for z in eager_read)
                fans += 1
                saved += lazy < eager
    assert fans > 500 and saved > 0


def vizing_fan_copying_polls(phi, e, x, polls):
    """The fan loop that copies each leaf's availability set at its first
    poll; ``polls`` counts the polls per leaf."""
    g = phi.g
    y = g.other_end(e, x)
    used = phi.used_edge[x]
    beta_sets = {}
    index = {e: 0}
    edges = [e]
    vertices = [x, y]
    k = 0
    while k < len(g.incidence[x]):
        z = vertices[-1]
        working = beta_sets.get(z)
        if working is None:
            working = beta_sets[z] = available(phi, z)
        eta = min(working)
        working.remove(eta)
        polls[z] = polls.get(z, 0) + 1
        if eta not in used:
            return Chain(tuple(edges), tuple(vertices)), eta, k + 1
        k += 1
        ek = used[eta]
        if ek in index:
            return Chain(tuple(edges), tuple(vertices)), eta, index[ek]
        index[ek] = k
        edges.append(ek)
        vertices.append(g.other_end(ek, x))
    raise InternalAssertionError("fan construction exhausted the pivot's degree")


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


def test_copy_free_polls_match_copying_reference():
    # reading a leaf's first poll in place finds the same fan as copying
    # it, also where parallel edges bring a leaf back
    fans = repolled = 0
    for g, L, phi in itertools.chain(random_vizing_partials(60), repolling_partials(60)):
        for e in blank_edges(phi):
            for x in g.endpoints[e]:
                polls = {}
                ref = vizing_fan_copying_polls(phi, e, x, polls)
                assert lc.vizing_fan(phi, e, x) == ref
                fans += 1
                repolled += sum(n > 1 for n in polls.values())
    assert fans > 1000 and repolled >= 100


def shift_candidates(g, phi, rng):
    """Vizing fans and their prefixes, then random chains (paths, parallel
    edges)."""
    for e in blank_edges(phi):
        for x in g.endpoints[e]:
            fan, _, j = lc.vizing_fan(phi, e, x)
            yield fan
            yield fan.prefix(j)
    for _ in range(12):
        yield random_chain(g, rng, phi.color)


def test_shift_delta_matches_applied_shift():
    outside = 0  # fan shifts that move a color outside its leaf's common set
    parallel = checked = 0
    for g, L, phi in random_vizing_partials(60):
        for cand in shift_candidates(g, phi, random.Random(g.m)):
            colors, before = list(phi.color), phi.potential()
            try:
                shift = phi.check_shift(cand.edges)
            except NotShiftableError:
                assert cand.vertices == ()  # every vizing fan shifts
                continue
            assert phi.color == colors and phi.potential() == before
            assert phi.verify() == []
            assert shift.delta == shift_change(g, L, colors, cand.edges)
            applied = rebuilt(phi)  # another coloring refuses phi's shift: check it there
            applied.apply_chain_shift(applied.check_shift(cand.edges))
            assert applied.verify() == []
            (a, d), (da, dd) = before, shift.delta
            assert applied.potential() == (a + da, d + dd)
            checked += 1
            ends = [frozenset(g.endpoints[f]) for f in cand.edges]
            parallel += len(set(ends)) < len(ends)
            outside += any(
                phi.color[f] is not None and phi.color[f] not in L.common[z]
                for f, z in zip(cand.edges, cand.vertices[1:])
            )
    assert outside > 0 and checked > 1000
    assert parallel > 20


def test_check_shift_raises_like_replay():
    # arbitrary edge orders around a pivot, shiftable or not; parallel
    # edges may sit next to each other, which no vizing fan does; and
    # random chains
    raised = 0
    for g, L, phi in random_vizing_partials(40):
        rng = random.Random(g.m)
        chains = [random_chain(g, rng, phi.color) for _ in range(8)]
        for x in range(g.n):
            inc = list(g.incidence[x])
            if not inc:
                continue
            for _ in range(4):
                edges = rng.sample(inc, rng.randint(1, len(inc)))
                leaves = tuple(g.other_end(f, x) for f in edges)
                chains.append(Chain(tuple(edges), (x, *leaves)))
        for chain in chains:
            colors = list(phi.color)
            try:
                replay_shift(rebuilt(phi), chain.edges)
            except PreconditionViolatedError:  # a blank edge after the start
                with pytest.raises(PreconditionViolatedError):
                    phi.check_shift(chain.edges)
                raised += 1
            except NotShiftableError as exc:
                with pytest.raises(NotShiftableError) as got:
                    phi.check_shift(chain.edges)
                assert (got.value.index, got.value.reason) == (exc.index, exc.reason)
                raised += 1
            else:
                delta = phi.check_shift(chain.edges).delta
                assert delta == shift_change(g, L, colors, chain.edges)
            assert phi.color == colors
    assert raised > 0
