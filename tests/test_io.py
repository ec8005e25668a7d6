import hashlib
import itertools
import random
import tracemalloc

import pytest

import listcolor as lc
from listcolor import io as lio
from listcolor.errors import InputError, ParseError

from conftest import assert_smaller_table, multiplicities

SEPARATORS = "tokens must be separated by ASCII whitespace"


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
    # refused at the first edge line that differs from the first edge line,
    # before a later line's own fault or the edge count is looked at
    for text, line_no, which in [
        ("p edge 3 3\ne 0 1 1 2\ne 1 2\ne 0 2 1 2\n", 3, "without"),
        ("p edge 3 4\nc e 0 1 1\ne 0 1\n\ne 1 2\ne 0 2 1 2\ne 0 0 1\n", 6, "with"),
    ]:
        with pytest.raises(ParseError) as info:
            lio.parse_instance(text)
        assert (info.value.line_no, info.value.reason) == (
            line_no, f"edge line {which} a list, unlike the first edge line")


def test_equal_numbers_are_one_object():
    # past CPython's cache of small ints, every vertex id and colour of one
    # value is still one object, in the graph and the lists alike
    text = "p edge 1000 3\ne 300 700 300 500\ne 700 999 500 600\ne 300 999 600 300\n"
    g, L = lio.parse_instance(text)
    first = {}
    for number in [x for pair in g.endpoints for x in pair] + [c for s in L.lists for c in s]:
        assert first.setdefault(number, number) is number
    assert sorted(first) == [300, 500, 600, 700, 999]


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


def test_parsed_lists_sit_in_the_smaller_table_and_share_by_text():
    # lengths 1-130; each text on two edges, and its value once more under
    # another text, so the common set of vertex 2k is an intersection
    lines = ["p edge 262 390"]
    for k in range(1, 131):
        text = " ".join(map(str, range(1, k + 1)))
        lines += [f"e {2 * k} {2 * k + 1} {text}"] * 2
        lines.append(f"e {2 * k} {2 * k + 1} {k} {text}")
    g, L = lio.parse_instance("\n".join(lines) + "\n")
    for k in range(1, 131):
        first, again, other = L.lists[3 * k - 3:3 * k]
        assert first is again and first == other == frozenset(range(1, k + 1))
        assert other is not first
        for s in (first, other, L.common[2 * k]):
            assert_smaller_table(s)
        assert L.common[2 * k] is L.common[2 * k + 1]


def test_parse_keeps_a_19_to_31_colour_list_in_1800_bytes():
    # 2000 edges between two vertices, each with its own list of 19-31
    # colours out of 64.  Retained under tracemalloc per distinct list,
    # CPython 3.11: 2372 B with each list grown one colour at a time (128
    # slots), 1350 B in the smaller table (64 slots)
    rng = random.Random(36)
    lines = ["p edge 2 2000"]
    for _ in range(2000):
        colors = rng.sample(range(1, 65), rng.randint(19, 31))
        lines.append("e 0 1 " + " ".join(map(str, colors)))
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        g, L = lio.parse_instance(text)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    distinct = len({id(s) for s in L.lists})
    assert distinct == 2000
    assert retained / distinct < 1800


@pytest.mark.parametrize("mark", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\r"])
def test_only_a_newline_ends_a_line(mark):
    # str.splitlines also breaks at these marks: a comment would lose its
    # tail to an unknown line, and a coloring would gain a line
    g, L = lio.parse_instance(f"c note{mark}more\np edge 2 1\ne 0 1\n")
    assert (g.n, list(g.endpoints), L) == (2, [(0, 1)], None)
    if mark.isascii():
        assert lio.parse_coloring(f"0 1{mark}\n", 1) == [1]
    else:  # nor is non-ASCII whitespace a separator
        with pytest.raises(ParseError) as info:
            lio.parse_coloring(f"0 1{mark}\n", 1)
        assert (info.value.line_no, info.value.reason) == (1, SEPARATORS)
    g, L = lio.parse_instance("p edge 2 1\r\ne 0 1 1 2\r\n")  # a \r\n file
    assert list(L.lists) == [frozenset({1, 2})]


def test_comments_and_blank_lines_skipped():
    # a comment is free text: spellings refused in numbers stay allowed
    text = "c generated\n\np edge 2 1\nc 1_0 +2 \u0663 \u00e9\ne 0 1\n"
    g, L = lio.parse_instance(text)
    assert g.m == 1
    for mark in ("_", "+", "\u00e9", "\xa0"):
        g, L = lio.parse_instance(f"c {mark}\np edge 3 2\ne 0 1 1 2\ne 1 2 3\n")
        assert g.endpoints == ((0, 1), (1, 2)) and L.lists == ({1, 2}, {3})


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


@pytest.mark.parametrize("lists, edge", [([{1, 2}, set()], 1), ([set(), set()], 0)])
def test_write_instance_refuses_an_empty_list(lists, edge):
    # "e 0 1 " would parse back as an edge without a list: one such edge
    # among listed ones is a mixed instance, and all of them drop the lists
    g = lc.Multigraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=f"edge {edge}:"):
        lio.write_instance(g, lc.ListAssignment(g, lists))


def test_coloring_roundtrip():
    colors = [3, None, 1]
    text = lio.write_coloring(colors)
    assert text == "0 3\n1 -\n2 1\n"
    assert lio.parse_coloring(text, 3) == colors


def test_coloring_parse_errors():
    # line i must be exactly "<i> <color|->" for i = 0..m-1; the first line
    # off that sequence is named, as is a line past m or a missing one
    sequence = "expected 2 lines '<i> <color|->' in index order"
    cases = [
        ("1 1\n0 2\n", 2, 1, sequence),  # out of order
        ("0 1\n0 2\n", 2, 2, sequence),  # duplicate
        ("0 1\n", 2, 2, sequence),  # missing
        ("", 2, 1, sequence),  # empty
        ("0 1\n1 2\n2 1\n", 2, 3, sequence),  # extra
        ("c colors\n0 1\n1 2\n", 2, 1, sequence),  # comment
        ("0 1\n\n1 2\n", 2, 2, sequence),  # blank line
        ("0 1 2\n1 2\n", 2, 1, sequence),  # extra token
        ("+0 1\n1 2\n", 2, 1, sequence),  # index spelled another way
        ("0 x\n1 2\n", 2, 1, "color must be an integer or '-'"),
        ("0 -3\n1 2\n", 2, 1, "colors must be positive integers"),
        ("0 1\n1 1_0\n", 2, 2, "numbers must be plain ASCII decimals"),
        ("0 1\n1 +2\n", 2, 2, "numbers must be plain ASCII decimals"),
        ("0 1\n1 \u0663\n", 2, 2, "numbers must be plain ASCII decimals"),
        # only ASCII whitespace separates tokens
        ("0\u20281\n1 2\n", 2, 1, SEPARATORS),
        ("0 1\n1\xa02\n", 2, 2, SEPARATORS),
        ("0 1\n1 -\x85\n", 2, 2, SEPARATORS),
        ("0 1\n1 2\n\u3000\n", 2, 3, SEPARATORS),
        # a line ends at a newline alone
        ("0 1\x0c\n1 x\n", 2, 2, "color must be an integer or '-'"),
        ("0 1\r\n1 x\r\n", 2, 2, "color must be an integer or '-'"),
    ]
    for text, m, line_no, reason in cases:
        with pytest.raises(ParseError) as info:
            lio.parse_coloring(text, m)
        assert (info.value.line_no, info.value.reason) == (line_no, reason), text
    assert lio.parse_coloring("", 0) == []


@pytest.mark.parametrize(
    "text, line_no, reason",
    [
        ("p edge -1 0\n", 1, "negative vertex or edge count"),
        ("p edge 2 1\ne 0\n", 2, "edge line needs two endpoints"),
        # int() reads these, the format does not
        ("p edge 1_1 1\n", 1, "numbers must be plain ASCII decimals"),
        ("p edge 3 +1\ne 0 1\n", 1, "numbers must be plain ASCII decimals"),
        ("p edge 3 1\ne 0 1_0\n", 2, "numbers must be plain ASCII decimals"),
        ("p edge 3 1\ne +0 1 +2\n", 2, "numbers must be plain ASCII decimals"),
        ("p edge 3 1\ne 0 1 \u0663\n", 2, "numbers must be plain ASCII decimals"),
        ("p edge 3 1\ne \u0660 \u0661 \u0662\n", 2,
         "numbers must be plain ASCII decimals"),
        # only ASCII whitespace separates tokens
        ("p\xa0edge 2 1\ne 0 1\n", 1, SEPARATORS),
        ("p edge 2 1\ne 0\u20281\n", 2, SEPARATORS),
        ("p edge 2 1\ne 0\x851 1\n", 2, SEPARATORS),
        ("p edge 2 1\ne 0 1 1\u30002\n", 2, SEPARATORS),
        ("p edge 2 1\n\xa0\ne 0 1\n", 2, SEPARATORS),
        # a comment's "c" follows ASCII whitespace alone
        ("\xa0c x\np edge 2 1\ne 0 1\n", 1, SEPARATORS),
        (" c hi\nc\xa0hi\np edge 2 1\ne 0 2\n", 4, "vertex out of range [0, 2)"),
        # a comment's "_", "+" or non-ASCII text leaves every other line checked
        ("c 1_0\np edge 3 1\ne 0 1 +2\n", 3, "numbers must be plain ASCII decimals"),
        ("c +1\np edge 2 1\ne 0\xa01\n", 3, SEPARATORS),
        ("c \u00e9\np edge 1_1 1\n", 2, "numbers must be plain ASCII decimals"),
        # a line ends at a newline alone
        ("c a\u2028b\np edge 2 1\ne 0 2\n", 3, "vertex out of range [0, 2)"),
        ("p edge 2 1\r\ne 0 2\r\n", 2, "vertex out of range [0, 2)"),
    ],
)
def test_parse_error_reasons(text, line_no, reason):
    with pytest.raises(ParseError) as info:
        lio.parse_instance(text)
    assert (info.value.line_no, info.value.reason) == (line_no, reason)


def test_trace_record_format():
    rec = lc.TraceRecord(
        3, "path-shift-happy", "koenig-path", (2, 5, 7),
        (12, 30), (11, 28),
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
    assert max(multiplicities(g).values()) >= 2
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
    # 50 * min(target, n * max_degree // 2, mu * pairs) + 100 draws
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(lio.random, "Random", CountingRandom)
    g = lc.generate_random(n, max_degree, mu, bipartite=bipartite, seed=1, edges=edges)
    assert g.m == full
    assert 0 < len(draws) <= 1000


def test_generate_random_draws_the_pinned_graphs_within_reach():
    # a call whose edge target the caps can hold draws the graphs of this
    # digest, taken when the draw budget was 50 * target + 100 draws
    digest, calls = hashlib.sha256(), 0
    for n, delta, mu, bipartite, edges, seed in itertools.product(
        (2, 5, 12, 40), (1, 3, 8), (1, 2), (False, True), (None, 0, 7, 30), (0, 1)
    ):
        target = n * delta // 3 if edges is None else edges
        pairs = (n + 1) // 2 * (n // 2) if bipartite else n * (n - 1) // 2
        if target <= min(n * delta // 2, pairs * mu):
            g = lc.generate_random(n, delta, mu, bipartite=bipartite, seed=seed, edges=edges)
            digest.update(repr(g.endpoints).encode())
            calls += 1
    assert (calls, digest.hexdigest()) == (
        250, "2fd31dd754fcffb3266f1272cba9e6d959de2c457bd95641429ec30a154e43cb"
    )


def test_generate_random_infeasible():
    with pytest.raises(InputError, match="^need at least two vertices to place edges$"):
        lc.generate_random(1, 2, 1, edges=3)
    with pytest.raises(InputError, match="^caps of zero cannot accommodate edges$"):
        lc.generate_random(5, 0, 0, edges=4)
