import random

import pytest

import listcolor as lc
from listcolor import io as lio
from listcolor.errors import (
    InfeasibleParamsError,
    MixedListPresenceError,
    ParseError,
)


def test_parse_explicit_triangle():
    text = "p edge 3 3\ne 0 1 1 2 3\ne 1 2 1 2 3\ne 0 2 1 2 3\n"
    g, L = lio.parse_instance(text)
    assert g.n == 3 and g.m == 3
    assert L is not None
    assert all(s == frozenset({1, 2, 3}) for s in L.lists)


def test_parse_bound_instance_has_no_lists():
    g, L = lio.parse_instance("p edge 2 1\ne 0 1\n")
    assert L is None and g.m == 1


def test_mixed_lists_rejected():
    text = "p edge 3 3\ne 0 1 1 2\ne 1 2\ne 0 2 1 2\n"
    with pytest.raises(MixedListPresenceError):
        lio.parse_instance(text)


@pytest.mark.parametrize(
    "text",
    [
        "e 0 1\n",  # edge before header
        "p edge 2 2\ne 0 1\n",  # count mismatch
        "p edge 2 1\ne 0 2\n",  # vertex out of range
        "p edge 2 1\ne 0 0\n",  # loop
        "p edge 2 1\ne 0 1 0\n",  # color zero
        "p edge x 1\ne 0 1\n",  # bad header int
        "q edge 2 1\n",  # unknown line
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        lio.parse_instance(text)


@pytest.mark.parametrize(
    "text, line_no, reason",
    [
        # a list text that an earlier good line made shared
        ("p edge 3 2\ne 0 1 1 2\ne 1 1 1 2\n", 3, "loop edge at vertex 1"),
        ("p edge 3 2\ne 0 1 1 2\ne 0 5 1 2\n", 3, "vertex out of range [0, 3)"),
        ("p edge 3 2\ne 0 1 1 2\ne 0 x 1 2\n", 3, "non-integer token on edge line"),
        # a bad list text is refused where it first appears
        ("p edge 3 2\ne 0 1 0 1\ne 1 2 0 1\n", 2, "colors must be positive integers"),
        ("p edge 3 2\ne 0 1 1 y\ne 1 2 1 y\n", 2, "non-integer token on edge line"),
    ],
)
def test_parse_error_lines_under_shared_lists(text, line_no, reason):
    with pytest.raises(ParseError) as info:
        lio.parse_instance(text)
    assert (info.value.line_no, info.value.reason) == (line_no, reason)


def _list_text(rng):
    """One list as text: colors repeated, in any order, spaced irregularly."""
    colors = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
    text = str(colors[0])
    for c in colors[1:]:
        text += rng.choice([" ", "  ", "\t"]) + str(c)
    return text + rng.choice(["", " "])


def _instance_with_repeated_lists(rng):
    n = rng.randint(2, 6)
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 12))]
    pool = [_list_text(rng) for _ in range(rng.randint(1, 4))]
    tails = [rng.choice(pool) for _ in edges]
    lines = [f"p edge {n} {len(edges)}"]
    for (u, v), tail in zip(edges, tails):
        gap = rng.choice([" ", "   ", "\t"])
        lines.append(f"e {u}{gap}{v}{gap}{tail}")
    return n, edges, tails, "\n".join(lines) + "\n"


def test_shared_parse_matches_a_per_line_reference():
    rng = random.Random(13)
    for _ in range(300):
        n, edges, tails, text = _instance_with_repeated_lists(rng)
        g, L = lio.parse_instance(text)
        ref = [frozenset(int(t) for t in tail.split()) for tail in tails]
        assert list(L.lists) == ref
        for x in range(n):
            acc = None
            for e, (u, v) in enumerate(edges):
                if x in (u, v):
                    acc = set(ref[e]) if acc is None else acc & ref[e]
            assert L.common[x] == (acc or set())
        first = {}
        for e, tail in enumerate(tails):
            assert L.lists[e] is L.lists[first.setdefault(tail, e)]
        assert len({id(s) for s in L.lists}) == len(set(tails))


def test_comments_and_blank_lines_skipped():
    text = "c generated\n\np edge 2 1\nc mid comment\ne 0 1\n"
    g, L = lio.parse_instance(text)
    assert g.m == 1


def test_instance_roundtrip_byte_identical():
    for seed in range(10):
        g = lc.generate_random(7, 4, 2, seed=seed, edges=10)
        text = lio.write_instance(g)
        g2, L2 = lio.parse_instance(text)
        assert lio.write_instance(g2) == text
        L = lc.generate_from_bounds(g, "vizing")
        text = lio.write_instance(g, L)
        g3, L3 = lio.parse_instance(text)
        assert lio.write_instance(g3, L3) == text


def test_coloring_roundtrip():
    colors = [3, None, 1]
    text = lio.write_coloring(colors)
    assert text == "0 3\n1 -\n2 1\n"
    assert lio.parse_coloring(text, 3) == colors


def test_coloring_parse_errors():
    with pytest.raises(ParseError):
        lio.parse_coloring("0 1\n", 2)  # missing edge line
    with pytest.raises(ParseError):
        lio.parse_coloring("0 1\n0 2\n", 1)  # duplicate
    with pytest.raises(ParseError):
        lio.parse_coloring("0 x\n", 1)


def test_trace_record_format():
    rec = lc.TraceRecord(
        3, "path-shift-happy", "koenig-path", (2, 5, 7),
        lc.Potential(12, 30), lc.Potential(11, 28),
    )
    assert lio.format_trace_record(rec) == "3 path-shift-happy koenig-path 2,5,7 12:30 11:28"


def test_generate_random_deterministic():
    a = lc.generate_random(6, 3, 1, bipartite=True, seed=7)
    b = lc.generate_random(6, 3, 1, bipartite=True, seed=7)
    assert a.endpoints == b.endpoints
    assert a.bipartition() is not None
    assert a.max_degree() <= 3
    assert max(a.mu_vertex(x) for x in range(a.n)) <= 1


def test_generate_random_multiplicity():
    g = lc.generate_random(4, 6, 3, seed=1, edges=9)
    assert any(
        g.multiplicity(x, y) >= 2 for x in range(g.n) for y in range(x + 1, g.n)
    )
    assert max(g.mu_vertex(x) for x in range(g.n)) <= 3
    assert g.max_degree() <= 6


@pytest.mark.parametrize(
    "n, max_degree, mu, bipartite, edges, full",
    [
        (3, 300_000, 1, False, None, 3),  # each of the three pairs once
        (4, 100_000, 2, True, None, 8),  # each of the four cross pairs twice
        (5, 1, 3, False, 100_000, 2),  # a maximal matching leaves one vertex
        (1, 300_000, 1, False, None, 0),  # no pair at all
    ],
)
def test_generate_random_stops_when_no_pair_has_room(
    monkeypatch, n, max_degree, mu, bipartite, edges, full
):
    # the target is far out of reach; the draw cap alone would allow
    # 100 * target + 200 draws
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(lio.random, "Random", CountingRandom)
    g = lc.generate_random(n, max_degree, mu, bipartite=bipartite, seed=1, edges=edges)
    assert g.m == full
    assert 0 < len(draws) <= 1000


def test_generate_random_infeasible():
    with pytest.raises(InfeasibleParamsError):
        lc.generate_random(1, 2, 1, edges=3)
    with pytest.raises(InfeasibleParamsError):
        lc.generate_random(5, 0, 0, edges=4)
