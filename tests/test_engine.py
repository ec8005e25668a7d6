import random
import re

import pytest

import listcolor as lc
from listcolor import coloring, engine
from listcolor.engine import augment_once
from listcolor.errors import (
    BoundViolationError,
    InputError,
    InternalAssertionError,
    NotBipartiteError,
    NotShiftableError,
    PreconditionViolatedError,
)

from conftest import (
    Miscounted,
    StepLog,
    adversarial_lists,
    blank_edges,
    check_certificate,
    random_partial,
    rebuilt,
    setup_partial,
)

S6 = frozenset(range(1, 7))
AB = frozenset({1, 2})


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
    assert augment_once(phi, 0, "shannon", stats) is None
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


@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig"])
def test_assume_bound_refused_outside_explicit_mode(triangle, mode):
    # the command line refuses --assume-bound without --mode explicit; the
    # library refuses it too rather than color under the mode and ignore it
    g, L = triangle
    with pytest.raises(ValueError, match="only to explicit mode"):
        lc.color_graph(g, L, mode, assume_bound="koenig")


# lists built for the triangle, which has one edge more than the path 0-1-2
TRIANGLE_LISTS = lc.generate_from_bounds(lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)]), "vizing")
FOREIGN = "lists are for 3 vertices and 3 edges, the graph has 3 and 2"

# misuse of a public call on the path 0-1-2, edge 0 colored -> (error, message)
MISUSE = {
    # a colored edge bound for each mode's helper: the step refuses it
    # before the helper runs, and the helpers do not check it again
    "koenig_path-colored": (lambda phi: augment_once(phi, 0, "koenig", lc.RunStats()),
                            PreconditionViolatedError, "edge 0 is not blank"),
    "shannon_fan-colored": (lambda phi: augment_once(phi, 0, "shannon", lc.RunStats()),
                            PreconditionViolatedError, "edge 0 is not blank"),
    "vizing_fan-colored": (lambda phi: augment_once(phi, 0, "vizing", lc.RunStats()),
                           PreconditionViolatedError, "edge 0 is not blank"),
    "color_graph-unknown-mode": (
        lambda phi: lc.color_graph(phi.g, phi.lists, "greedy"), ValueError,
        "mode must be one of ('shannon', 'vizing', 'koenig', 'explicit'), got 'greedy'"),
    "augment_once-explicit": (
        lambda phi: augment_once(phi, 1, "explicit", lc.RunStats()),
        ValueError, "augment mode must name a guarantee, got 'explicit'"),
    "negative-vertex-count": (lambda phi: lc.Multigraph(-1, []),
                              ValueError, "vertex count must be nonnegative"),
    "one-list-too-many": (lambda phi: lc.ListAssignment(phi.g, [S6] * 3),
                          ValueError, "expected 2 lists, got 3"),
    "check_edge_colors-short": (lambda phi: lc.check_edge_colors(phi.g, phi.lists, [1]),
                                ValueError, "expected 2 colors, got 1"),
    "check_edge_colors-long": (
        lambda phi: lc.check_edge_colors(phi.g, phi.lists, [1, None, 2]),
        ValueError, "expected 2 colors, got 3"),
    # a color that is not an int: True and 2.0 would match a listed 1 and 2
    "check_edge_colors-bool-color": (
        lambda phi: lc.check_edge_colors(phi.g, phi.lists, [True, None]),
        ValueError, "edge 0: color True is not an int"),
    "check_edge_colors-float-color": (
        lambda phi: lc.check_edge_colors(phi.g, phi.lists, [1, 2.0]),
        ValueError, "edge 1: color 2.0 is not an int"),
    "check_edge_colors-integral-float-color": (
        lambda phi: lc.check_edge_colors(phi.g, phi.lists, [None, 1.0]),
        ValueError, "edge 1: color 1.0 is not an int"),
    "PartialColoring-foreign-lists": (lambda phi: lc.PartialColoring(phi.g, TRIANGLE_LISTS),
                                      ValueError, FOREIGN),
    "exhaustive_color-foreign-lists": (
        lambda phi: lc.exhaustive_color(phi.g, TRIANGLE_LISTS), ValueError, FOREIGN),
    "write_instance-foreign-lists": (lambda phi: lc.write_instance(phi.g, TRIANGLE_LISTS),
                                     ValueError, FOREIGN),
    "bool-vertex": (lambda phi: lc.Multigraph(3, [(True, 2), (0, 2)]),
                    InputError, "vertex True is not an int"),
    "float-vertex": (lambda phi: lc.Multigraph(3, [(0, 1.0)]),
                     InputError, "vertex 1.0 is not an int"),
    "str-vertex": (lambda phi: lc.Multigraph(3, [("0", 1)]),
                   InputError, "vertex '0' is not an int"),
    # a bool would read as vertex 1, and a float would raise a bare TypeError
    "degree-bool-vertex": (lambda phi: phi.g.degree(True),
                           InputError, "vertex True is not an int"),
    "degree-float-vertex": (lambda phi: phi.g.degree(1.0),
                            InputError, "vertex 1.0 is not an int"),
    "mu_vertex-bool-vertex": (lambda phi: phi.g.mu_vertex(False),
                              InputError, "vertex False is not an int"),
    "mu_vertex-str-vertex": (lambda phi: phi.g.mu_vertex("1"),
                             InputError, "vertex '1' is not an int"),
    "bool-vertex-count": (lambda phi: lc.Multigraph(True, []),
                          InputError, "vertex count True is not an int"),
    "float-vertex-count": (lambda phi: lc.Multigraph(2.0, []),
                           InputError, "vertex count 2.0 is not an int"),
    "str-vertex-count": (lambda phi: lc.Multigraph("3", []),
                         InputError, "vertex count '3' is not an int"),
    "edge-triple": (lambda phi: lc.Multigraph(3, [(0, 1, 2)]),
                    InputError, "edge 0 is not a vertex pair: (0, 1, 2)"),
    "edge-not-a-pair": (lambda phi: lc.Multigraph(3, [(0, 1), 0]),
                        InputError, "edge 1 is not a vertex pair: 0"),
    # a negative id would index from the end; one past the end, past it
    "assign-negative-edge": (lambda phi: phi.assign(-1, 2),
                             PreconditionViolatedError, "edge -1 out of range [0, 2)"),
    "assign-past-the-end": (lambda phi: phi.assign(2, 2),
                            PreconditionViolatedError, "edge 2 out of range [0, 2)"),
    "unassign-negative-edge": (lambda phi: phi.unassign(-2),
                               PreconditionViolatedError, "edge -2 out of range [0, 2)"),
    "check_shift-negative-edge": (lambda phi: phi.check_shift((-1,)),
                                  PreconditionViolatedError, "edge -1 out of range [0, 2)"),
    "check_shift-past-the-end": (lambda phi: phi.check_shift((1, 0, 2)),
                                 PreconditionViolatedError, "edge 2 out of range [0, 2)"),
    "augment_once-negative-edge": (
        lambda phi: augment_once(phi, -1, "vizing", lc.RunStats()),
        PreconditionViolatedError, "edge -1 out of range [0, 2)"),
    "augment_once-past-the-end": (
        lambda phi: augment_once(phi, 2, "shannon", lc.RunStats()),
        PreconditionViolatedError, "edge 2 out of range [0, 2)"),
    # an edge id that is not an int: a bool would index as 0 or 1
    "assign-bool-edge": (lambda phi: phi.assign(True, 2),
                         PreconditionViolatedError, "edge True is not an int"),
    "assign-float-edge": (lambda phi: phi.assign(0.0, 2),
                          PreconditionViolatedError, "edge 0.0 is not an int"),
    "assign-bool-color": (lambda phi: phi.assign(1, True),
                          PreconditionViolatedError, "color True is not an int"),
    "assign-float-color": (lambda phi: phi.assign(1, 2.0),
                           PreconditionViolatedError, "color 2.0 is not an int"),
    "assign-integral-float-color": (lambda phi: phi.assign(1, 1.0),
                                    PreconditionViolatedError, "color 1.0 is not an int"),
    "unassign-bool-edge": (lambda phi: phi.unassign(False),
                           PreconditionViolatedError, "edge False is not an int"),
    "check_shift-bool-edge": (lambda phi: phi.check_shift((True,)),
                              PreconditionViolatedError, "edge True is not an int"),
    "check_shift-str-edge": (lambda phi: phi.check_shift((1, "0")),
                             PreconditionViolatedError, "edge '0' is not an int"),
    "augment_once-bool-edge": (
        lambda phi: augment_once(phi, True, "vizing", lc.RunStats()),
        PreconditionViolatedError, "edge True is not an int"),
    "augment_once-float-edge": (
        lambda phi: augment_once(phi, 1.0, "shannon", lc.RunStats()),
        PreconditionViolatedError, "edge 1.0 is not an int"),
}


@pytest.mark.parametrize("case", sorted(MISUSE))
def test_public_calls_refuse_misuse(case):
    call, error, message = MISUSE[case]
    phi = setup_partial(3, [(0, 1, 1, S6), (1, 2, None, S6)])[2]
    before = (list(phi.color), phi.potential(), phi.stamp)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(phi)
    assert (list(phi.color), phi.potential(), phi.stamp) == before


def test_step_budget_formula():
    g = lc.generate_random(10, 5, 2, seed=3, edges=16)
    L = lc.generate_from_bounds(g, "shannon")
    a0 = sum(len(L.common[x]) for x in range(g.n))
    d0 = sum(g.degree(x) ** 2 for x in range(g.n))
    # (a0, d0) is the potential of the blank coloring every run starts from
    blank = lc.PartialColoring(g, L)
    assert (a0, d0) == blank.potential()
    assert lc.step_budget(blank) == (2 * g.max_degree() - 1) * a0 + d0
    _, stats = lc.color_graph(g, L, "shannon")
    assert stats.steps <= lc.step_budget(blank)
    assert stats.happy_steps == g.m


def test_step_budget_trip(monkeypatch):
    # the run stops before the step that would take it past the budget,
    # and a budget of exactly the steps a run takes lets it finish
    g = lc.generate_random(10, 5, 2, seed=3, edges=16)
    L = lc.generate_from_bounds(g, "vizing")
    _, stats = lc.color_graph(g, L, "vizing")
    assert stats.content_steps > 0
    monkeypatch.setattr(engine, "step_budget", lambda phi: stats.steps - 1)
    with pytest.raises(InternalAssertionError,
                       match=f"^step {stats.steps} exceeds budget {stats.steps - 1}$"):
        lc.color_graph(g, L, "vizing")
    monkeypatch.setattr(engine, "step_budget", lambda phi: stats.steps)
    _, again = lc.color_graph(g, L, "vizing")
    assert again == stats


def test_final_verification_failure_names_its_first_finding(monkeypatch):
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.generate_from_bounds(g, "shannon")
    monkeypatch.setattr(engine, "PartialColoring", Miscounted)
    with pytest.raises(InternalAssertionError,
                       match="^final verification failed: CacheMismatch: blank edge count$"):
        lc.color_graph(g, L, "shannon")


def test_happy_step_count_is_checked_at_the_end(monkeypatch):
    g = lc.Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    L = lc.generate_from_bounds(g, "shannon")
    monkeypatch.setattr(engine, "RunStats", lambda: lc.RunStats(happy_steps=1))
    with pytest.raises(InternalAssertionError,
                       match="^happy step count does not match edge count$"):
        lc.color_graph(g, L, "shannon")


def _color_edge_0(phi, e):
    phi.assign(0, 1)
    return "content-fan-full", phi.check_shift((e,)), None, False


@pytest.mark.parametrize("specs, verdict, message", [
    # a content verdict whose one-edge shift moves nothing: (a, d) stays
    ([(0, 1, 1, S6), (1, 2, None, S6)],
     lambda phi, e: ("content-fan-full", phi.check_shift((e,)), None, False),
     "potential did not drop: (16, 3) -> (16, 3)"),
    # the classifier colors edge 0 behind the engine's back: the potential
    # drops, but a content step must keep the blank count
    ([(0, 1, None, S6), (1, 2, None, S6)], _color_edge_0, "blank count went from 2 to 1"),
    # edge 1's one color sits on edge 0 at their shared vertex
    ([(0, 1, 1, {1}), (1, 2, None, {1})],
     lambda phi, e: ("happy-fan", phi.check_shift((e,)), None, True),
     "edge 1 not recolorable after its shift"),
], ids=["potential", "blank-count", "recolor"])
def test_step_checks_refuse_a_rigged_verdict(specs, verdict, message, monkeypatch):
    # each per-step floor check in augment_once, tripped by a classifier
    # that returns a verdict the theory rules out
    phi = setup_partial(3, specs)[2]
    monkeypatch.setattr(engine.vizing, "classify_vizing", lambda phi, e, x: verdict(phi, e))
    with pytest.raises(InternalAssertionError, match=f"^{re.escape(message)}$"):
        augment_once(phi, 1, "vizing", lc.RunStats())


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
            augment_once(phi, e, "vizing", stats)
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
        augment_once(phi, blank_edges(phi)[0], "vizing", stats)
        assert phi.verify() == []


@pytest.mark.parametrize("mode, specs, line, stats", [
    # vizing's fan is the blank edge alone (j = 1): a happy-fan step
    ("vizing", [(0, 1, None, AB), (1, 2, 1, AB)],
     "0 fan-shift vizing-happy-fan 0 4:3 2:0", lc.RunStats(1, 0, 1, 0, 1)),
    # koenig's two smallest available colors agree: a one-edge path
    ("koenig", [(0, 1, None, AB)],
     "0 path-shift-happy koenig-path 0 4:2 2:0", lc.RunStats(1, 0, 0, 1, 1)),
])
def test_one_edge_chain_is_colored_without_a_shift(mode, specs, line, stats,
                                                    monkeypatch):
    # a one-edge chain moves no color: the step neither checks nor commits
    # a shift, yet keeps its trace record and counters
    g, L, phi = setup_partial(3, specs)
    log = StepLog(monkeypatch)
    records, run = [], lc.RunStats()
    assert engine.augment_once(phi, 0, mode, run, trace=records.append) is None
    assert [lc.io.format_trace_record(r) for r in records] == [line]
    assert run == stats
    assert [(s.checked, s.committed) for s in log.steps] == [([], [])]
    assert phi.color[0] == 2 - (mode == "koenig") and phi.verify() == []


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
        check_certificate(g, L, records, stats, traced.color)

    def no_records(*args):
        raise AssertionError("an untraced run built a trace record")

    monkeypatch.setattr(engine, "TraceRecord", no_records)
    phi, _ = lc.color_graph(g, L, mode, assume_bound=assume)
    assert phi.color == plain.color


def stats_instances(mode, assume):
    """(g, L): 40 random shapes under bound lists, or adversarial ones when
    ``assume`` is set; vizing adds 41 with Delta 6 and mu 3."""
    for seed in range(40):
        rng = random.Random(seed)
        g = lc.generate_random(rng.randint(3, 10), rng.randint(2, 10), rng.randint(1, 5),
                               bipartite=mode == "koenig", seed=seed,
                               edges=rng.randint(2, 30))
        yield g, adversarial_lists(g, assume, rng) if assume else lc.generate_from_bounds(g, mode)
    shapes = [(12, s, random.Random(s).randint(4, 24)) for s in range(40)] + [(10, 8, 20)]
    for n, seed, m in shapes if mode == "vizing" else ():
        g = lc.generate_random(n, 6, 3, seed=seed, edges=m)
        yield g, lc.generate_from_bounds(g, mode)


@pytest.mark.parametrize("mode, assume", [
    ("shannon", None), ("vizing", None), ("koenig", None),
    ("explicit", "shannon"), ("explicit", "vizing"),
])
def test_run_stats_match_the_trace(mode, assume):
    # every RunStats counter, recomputed from the trace records alone; the
    # vizing runs, explicit ones included, reach psi steps (-setup records)
    setup = 0
    for g, L in stats_instances(mode, assume):
        records = []
        phi, stats = lc.color_graph(g, L, mode, assume_bound=assume, trace=records.append)
        check_certificate(g, L, records, stats, phi.color)
        assert all(r.branch.startswith(f"{assume or mode}-") for r in records)
        setup += sum(r.branch.endswith("-setup") for r in records)
    assert setup > 0 or "vizing" not in (mode, assume)


@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig"])
def test_run_stats_match_the_trace_from_partial_colorings(mode):
    # augment_once on random partials reaches shannon's path-phi and both
    # vizing psi branches, which runs from blank rarely do
    want = {"shannon": "shannon-final-path-phi", "vizing": "vizing-path-psi-prefix-setup",
            "koenig": "koenig-path"}[mode]
    branches = set()
    for seed in range(40):
        rng = random.Random(seed)
        g = lc.generate_random(rng.randint(4, 12), rng.randint(3, 8), rng.randint(1, 3),
                               bipartite=mode == "koenig", seed=seed,
                               edges=rng.randint(6, 30))
        L = lc.generate_from_bounds(g, mode)
        phi = random_partial(g, L, rng, fill=0.9)
        start, stats, records = list(phi.color), lc.RunStats(), []
        while phi.blanks:
            augment_once(phi, blank_edges(phi)[0], mode, stats, records.append)
        check_certificate(g, L, records, stats, phi.color, start)
        branches |= {r.branch for r in records}
    assert want in branches


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
                shift = phi.check_shift(chain)
            except NotShiftableError:
                continue
            old = [phi.color[e] for e in chain]
            phi.apply_chain_shift(shift)
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
                    e = augment_once(phi, e, mode, stats)
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
            left = augment_once(phi, blank_edges(phi)[0], mode, stats)
            assert left is None or phi.color[left] is None
        assert phi.verify() == []


@pytest.mark.parametrize("mode, assume", [
    ("shannon", None), ("vizing", None), ("explicit", "vizing"), ("koenig", None),
])
def test_each_shift_is_checked_once(mode, assume, monkeypatch):
    # a classifier checks each candidate shift once and the commit trusts
    # that check: no step checks one chain twice or checks a one-edge
    # chain, and every check leads to a commit except one vizing fan
    # passed over, for its prefix (a content-fan-prefix step) or for a
    # path (a path-psi step, whose fan shift and path shift are both
    # committed); random shannon runs take the happy-edge branch, and
    # test_shannon covers its deeper cases; koenig checks only the path
    # prefixes resolve_path commits
    log = StepLog(monkeypatch)
    branch = {}  # step index in the log -> the branch of its last record
    bound = assume or mode
    for seed in range(600):
        rng = random.Random(seed)
        g = lc.generate_random(rng.randint(3, 10), rng.randint(2, 10), rng.randint(1, 5),
                               bipartite=mode == "koenig", seed=seed,
                               edges=rng.randint(2, 30))
        if mode == "explicit":
            L = adversarial_lists(g, bound, rng)
        else:
            L = lc.generate_from_bounds(g, mode)
        lc.color_graph(g, L, mode, assume_bound=assume,
                       trace=lambda r: branch.__setitem__(len(log.steps) - 1, r.branch))
    passed_over = [len(s.checked) - len(s.committed) for s in log.steps]
    for i in (i for i, n in enumerate(passed_over) if n):
        assert passed_over[i] == 1
        assert branch[i] in (f"{bound}-content-fan-prefix", f"{bound}-path-psi-full",
                             f"{bound}-path-psi-prefix")
    if bound != "shannon":
        assert sum(len(s.committed) for s in log.steps) > 1000
    if bound == "vizing":
        assert sum(passed_over) > 20


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
        assume = bound if mode == "explicit" else None
        for h, M in [(g, L), *relabellings(g, L, rng)]:
            phi, _ = lc.color_graph(h, M, mode, assume_bound=assume)
            assert None not in phi.color
            assert lc.check_edge_colors(h, M, phi.color) == []
            runs += 1
    assert runs == 200


@pytest.mark.parametrize("wide", [coloring.WIDE, 0], ids=["shared", "per-vertex"])
@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig"])
def test_order_preserving_relabelling_changes_nothing_at_scale(monkeypatch, mode, wide):
    # the engine compares colors only by their order and vertices only by
    # index and degree, so mapping every color c -> 3c + 2 and every vertex
    # x -> 3x + 1 into 3n + 2 vertices, the added ones isolated, maps the
    # colors and leaves the counters and every trace record as they were:
    # chain ids and potentials included.  The instance has the benchmark's
    # scale shape (n = 2000, delta = 16, m = n delta / 3, bound lists),
    # far past what the oracle can check.
    monkeypatch.setattr(coloring, "WIDE", wide)
    n, delta = 2000, 16
    g = lc.generate_random(n, delta, 1, bipartite=mode == "koenig", seed=1,
                           edges=n * delta // 3)
    L = lc.generate_from_bounds(g, mode)
    h = lc.Multigraph(3 * n + 2, [(3 * u + 1, 3 * v + 1) for u, v in g.endpoints])
    M = lc.ListAssignment(h, [frozenset(3 * c + 2 for c in s) for s in L.lists])
    runs = []
    for graph, lists, modes in ((g, L, (mode,)), (h, M, ("explicit", mode))):
        records = []
        phi, stats = lc.color_graph(graph, lists, *modes, trace=records.append)
        assert (len({id(p) for p in phi.palette}) > 1) == (wide == 0)
        runs.append((phi.color, stats, records))
    (color, stats, records), (mapped, mapped_stats, mapped_records) = runs
    assert mapped == [3 * c + 2 for c in color]
    assert mapped_stats == stats
    assert mapped_records == records
    assert stats.happy_steps == g.m > 10000
