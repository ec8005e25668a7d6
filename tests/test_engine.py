import itertools
import random

import pytest

import listcolor as lc
from listcolor import engine
from listcolor.errors import BoundViolationError, NotBipartiteError, NotShiftableError

from conftest import (
    ShiftLog,
    adversarial_lists,
    blank_edges,
    random_partial,
    rebuilt,
    recompute_potential,
)

S6 = frozenset(range(1, 7))


def test_triangle_shannon_total():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.generate_from_bounds(g, "shannon")
    phi, stats = lc.color_graph(g, L, "shannon")
    assert sorted(phi.color) == [1, 2, 3]
    assert stats.happy_steps == 3
    assert phi.verify() == []


def test_first_augment_colors_first_edge():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.generate_from_bounds(g, "shannon")
    phi = lc.PartialColoring(g, L)
    stats = lc.RunStats()
    assert lc.augment_once(phi, 0, "shannon", stats) is None
    assert phi.color[0] == 1


def test_digon_vizing_oracle_agreement(digon):
    g, L = digon
    oracle = lc.exhaustive_color(g, L)
    assert oracle is not None
    phi, _ = lc.color_graph(g, L, "vizing")
    assert sorted(phi.color) == [1, 2]
    assert not lc.check_edge_colors(g, L, phi.color)


def test_four_cycle_koenig():
    g = lc.Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    L = lc.generate_from_bounds(g, "koenig")
    phi, stats = lc.color_graph(g, L, "koenig")
    assert phi.color == [1, 2, 1, 2]
    assert stats.fan_shifts == 0


def test_empty_graph():
    g = lc.Multigraph(3, [])
    L = lc.ListAssignment(g, [])
    phi, stats = lc.color_graph(g, L, "vizing")
    assert stats.steps == 0
    assert phi.potential() == (0, 0)


def test_bound_violation_rejected():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.ListAssignment(g, [frozenset({1, 2})] * 3)
    with pytest.raises(BoundViolationError):
        lc.color_graph(g, L, "explicit", assume_bound="shannon")


def test_koenig_requires_bipartite():
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.generate_from_bounds(g, "vizing")
    with pytest.raises(NotBipartiteError):
        lc.color_graph(g, L, "koenig")


def test_explicit_requires_assume_bound(digon):
    g, L = digon
    with pytest.raises(ValueError):
        lc.color_graph(g, L, "explicit")


def test_potential_strictly_decreases_every_step():
    for seed in range(40):
        rng = random.Random(seed)
        g = lc.generate_random(12, 6, 3, seed=seed, edges=rng.randint(4, 24))
        L = lc.generate_from_bounds(g, "vizing")
        records = []
        phi, stats = lc.color_graph(g, L, "vizing", trace=records.append)
        # from the empty coloring's potential, each step's records start where
        # the last step's ended and end strictly lower, at the final coloring's
        pot, steps = lc.PartialColoring(g, L).potential(), 0
        for step, recs in itertools.groupby(records, lambda r: r.step):
            recs = list(recs)
            assert step == steps and recs[0].phi_before == pot
            assert recs[-1].phi_after < pot
            pot, steps = recs[-1].phi_after, steps + 1
        assert steps == stats.steps
        assert pot == recompute_potential(g, L, phi.color)


def test_step_budget_formula():
    g = lc.generate_random(10, 5, 2, seed=3, edges=16)
    L = lc.generate_from_bounds(g, "shannon")
    content_budget, happy_budget = lc.step_budget(g, L)
    assert happy_budget == g.m
    assert content_budget == g.n * L.max_common() + (g.max_degree() ** 2 * g.n**2) // 2
    _, stats = lc.color_graph(g, L, "shannon")
    assert stats.content_steps <= content_budget
    assert stats.happy_steps == g.m


def test_edge_order_does_not_affect_success():
    # drive augment_once manually over random blank-edge orders
    for seed in range(15):
        g = lc.generate_random(9, 5, 2, seed=seed, edges=15)
        L = lc.generate_from_bounds(g, "vizing")
        rng = random.Random(seed * 31)
        phi = lc.PartialColoring(g, L)
        stats = lc.RunStats()
        guard = 0
        while phi.blanks:
            e = rng.choice(blank_edges(phi))
            lc.augment_once(phi, e, "vizing", stats)
            guard += 1
            assert guard < 10_000
        assert phi.verify() == []
        assert stats.happy_steps == g.m


def test_intermediate_colorings_stay_proper():
    g = lc.generate_random(10, 6, 3, seed=5, edges=20)
    L = lc.generate_from_bounds(g, "vizing")
    phi = lc.PartialColoring(g, L)
    stats = lc.RunStats()
    while phi.blanks:
        lc.augment_once(phi, blank_edges(phi)[0], "vizing", stats)
        assert phi.verify() == []


def test_trace_records_consistent():
    g = lc.generate_random(10, 6, 3, seed=8, edges=20)
    L = lc.generate_from_bounds(g, "vizing")
    records = []
    phi, stats = lc.color_graph(g, L, "vizing", trace=records.append)
    assert records, "expected at least one trace record"
    kinds = {"happy-edge", "fan-shift", "path-shift-happy", "path-shift-content"}
    for rec in records:
        assert rec.kind in kinds
        assert rec.branch.startswith("vizing-")
        assert rec.chain
    # the records certify the run: steps chain from the empty coloring's
    # potential to the final one, each strictly lowering it
    pot, steps = lc.PartialColoring(g, L).potential(), 0
    for step, recs in itertools.groupby(records, lambda r: r.step):
        recs = list(recs)
        assert step == steps and recs[0].phi_before == pot
        assert recs[-1].phi_after < pot
        pot, steps = recs[-1].phi_after, steps + 1
    assert steps == stats.steps
    assert pot == recompute_potential(g, L, phi.color)


def traced_instance(mode, seed):
    rng = random.Random(seed)
    g = lc.generate_random(12, 6, 3, bipartite=mode == "koenig", seed=seed,
                           edges=rng.randint(10, 30))
    if mode == "explicit":
        return g, adversarial_lists(g, "shannon", rng), "shannon"
    return g, lc.generate_from_bounds(g, mode), None


@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig", "explicit"])
def test_tracing_changes_nothing(mode, monkeypatch):
    for seed in range(8):
        g, L, assume = traced_instance(mode, seed)
        plain, plain_stats = lc.color_graph(g, L, mode, assume_bound=assume)
        records = []
        traced, stats = lc.color_graph(g, L, mode, assume_bound=assume,
                                       trace=records.append)
        assert traced.color == plain.color
        assert stats == plain_stats
        pot, steps = lc.PartialColoring(g, L).potential(), 0
        for step, recs in itertools.groupby(records, lambda r: r.step):
            recs = list(recs)
            assert step == steps and recs[0].phi_before == pot
            assert recs[-1].phi_after < pot
            pot, steps = recs[-1].phi_after, steps + 1
        assert steps == stats.steps
        assert pot == recompute_potential(g, L, traced.color)

    def no_records(*args):
        raise AssertionError("an untraced run built a trace record")

    monkeypatch.setattr(engine, "TraceRecord", no_records)
    phi, _ = lc.color_graph(g, L, mode, assume_bound=assume)
    assert phi.color == plain.color


def test_explicit_mode_with_adversarial_lists():
    rng = random.Random(99)
    g = lc.generate_random(8, 5, 2, seed=9, edges=14)
    targets = []
    for x in range(g.n):
        b = lc.local_bound(g, x, "vizing")
        lo = rng.randint(1, 4)
        pool = list(range(lo, lo + b + 3))
        rng.shuffle(pool)
        targets.append(frozenset(pool[:b]))
    lists = [targets[u] | targets[v] for u, v in g.endpoints]
    L = lc.ListAssignment(g, lists)
    assert lc.check_bound(g, L, "vizing").ok
    phi, _ = lc.color_graph(g, L, "explicit", assume_bound="vizing")
    assert phi.verify() == []


def _churn(phi, r, rounds):
    """Random assigns, unassigns, chain shifts (half undone) and rebuilds."""
    g = phi.g
    for _ in range(rounds):
        op = r.random()
        if op < 0.3 and phi.blanks:
            e = r.choice(blank_edges(phi))
            c = phi.is_happy(e)
            if c is not None:
                phi.assign(e, c)
        elif op < 0.55 and phi.blanks < g.m:
            phi.unassign(r.choice([e for e, c in enumerate(phi.color) if c is not None]))
        elif op < 0.9 and phi.blanks:
            chain = [r.choice(blank_edges(phi))]
            for _ in range(r.randint(1, 3)):
                x = r.choice(g.endpoints[chain[-1]])
                colored = [f for f in g.incidence[x]
                           if f not in chain and phi.color[f] is not None]
                if not colored:
                    break
                chain.append(r.choice(colored))
            try:
                old = phi.apply_chain_shift(phi.check_shift(chain))
            except NotShiftableError:
                continue
            if r.random() < 0.5:
                phi.undo_chain_shift(chain, old)
        else:
            phi = rebuilt(phi)
    return phi


@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig"])
def test_first_blank_is_smallest_blank_edge(mode):
    # color_graph's order: each edge in id order, repaired until colored,
    # driven by augment_once's return value.  The edge under repair is
    # always the smallest blank id, and the edge a content step leaves
    # blank was colored before, so it lies below every never-colored edge
    content = 0
    for seed in range(30):
        g = lc.generate_random(16, 8, 2, bipartite=mode == "koenig", seed=seed, edges=48)
        r = random.Random(seed + 7)
        for L in (lc.generate_from_bounds(g, mode), adversarial_lists(g, mode, r)):
            phi = lc.PartialColoring(g, L)
            stats = lc.RunStats()
            fresh = set(range(g.m))  # edges never colored
            for e in range(g.m):
                while e is not None:
                    assert e == blank_edges(phi)[0]
                    e = lc.augment_once(phi, e, mode, stats)
                    fresh -= {f for f in fresh if phi.color[f] is not None}
                    if e is not None:
                        assert phi.color[e] is None and e < min(fresh, default=g.m)
            assert not phi.blanks and phi.verify() == []
            content += stats.content_steps
    assert content > 0 or mode == "shannon"  # shannon's random runs are all happy


@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig"])
def test_augment_repairs_arbitrary_partial_colorings(mode):
    # augment_once works on any proper partial coloring, reached here by
    # churn, and the edge a content step returns is blank
    for seed in range(12):
        g = lc.generate_random(10, 5, 2, bipartite=mode == "koenig", seed=seed, edges=18)
        L = lc.generate_from_bounds(g, mode)
        r = random.Random(seed + 7)
        phi = _churn(random_partial(g, L, r, fill=0.5), r, 60)
        assert phi.verify() == []
        stats = lc.RunStats()
        while phi.blanks:
            left = lc.augment_once(phi, blank_edges(phi)[0], mode, stats)
            assert left is None or phi.color[left] is None
        assert phi.verify() == []


@pytest.mark.parametrize("mode, assume", [
    ("shannon", None), ("vizing", None), ("explicit", "vizing"),
])
def test_each_shift_is_checked_once(mode, assume, monkeypatch):
    # a classifier checks each candidate shift once and the commit trusts
    # that check: no step checks one chain twice, and every check leads to
    # a commit except a vizing full fan passed over for its prefix (a
    # content-fan-prefix step) or for a path (a path-psi step, whose fan
    # shift and path shift are both committed); random shannon runs take
    # the happy-edge branch, and test_shannon covers its deeper cases
    log = ShiftLog(monkeypatch)
    branches = []
    bound = assume or mode
    for seed in range(150):
        rng = random.Random(seed)
        g = lc.generate_random(rng.randint(3, 10), rng.randint(2, 10), rng.randint(1, 5),
                               seed=seed, edges=rng.randint(2, 30))
        if mode == "explicit":
            L = adversarial_lists(g, bound, rng)
        else:
            L = lc.generate_from_bounds(g, mode)
        lc.color_graph(g, L, mode, assume_bound=assume,
                       trace=lambda r: branches.append(r.branch))
    passed_over = sum(
        b in (f"{bound}-content-fan-prefix", f"{bound}-path-psi-full",
              f"{bound}-path-psi-prefix")
        for b in branches
    )
    assert log.checks == log.commits + passed_over
    if bound == "vizing":
        assert log.commits > 1000 and passed_over > 20


def relabellings(g, L, rng):
    """Three relabelled copies of (g, L): vertices permuted (within each
    parity side, the generator's bipartition), edges reordered, and every
    color c mapped to 3c + 2."""
    perm = list(range(g.n))
    for side in (perm[0::2], perm[1::2]):
        shuffled = rng.sample(side, len(side))
        for x, y in zip(side, shuffled):
            perm[x] = y
    h = lc.Multigraph(g.n, [(perm[u], perm[v]) for u, v in g.endpoints])
    yield h, lc.ListAssignment(h, L.lists)
    order = rng.sample(range(g.m), g.m)
    h = lc.Multigraph(g.n, [g.endpoints[e] for e in order])
    yield h, lc.ListAssignment(h, [L.lists[e] for e in order])
    yield g, lc.ListAssignment(g, [frozenset(3 * c + 2 for c in s) for s in L.lists])


@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig", "explicit"])
def test_relabelled_instances_are_colored(mode):
    # relabelling vertices, edges or colors keeps the guarantee, so each
    # relabelled instance is colored completely and properly from its lists
    runs = 0
    for seed in range(50):
        rng = random.Random(seed)
        bound = ("shannon", "vizing", "koenig")[seed % 3] if mode == "explicit" else mode
        g = lc.generate_random(rng.randint(3, 12), rng.randint(2, 8), rng.randint(1, 4),
                               bipartite=bound == "koenig", seed=seed,
                               edges=rng.randint(2, 30))
        if mode == "explicit":
            L = adversarial_lists(g, bound, rng)
        else:
            L = lc.generate_from_bounds(g, mode)
        for h, M in [(g, L), *relabellings(g, L, rng)]:
            phi, _ = lc.color_graph(h, M, mode, assume_bound=bound)
            assert None not in phi.color
            assert lc.check_edge_colors(h, M, phi.color) == []
            runs += 1
    assert runs == 200
