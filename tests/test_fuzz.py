"""Property tests of the file formats and the CLI on generated and mutated texts.

Instances stay at n <= 8 and m <= 12.  Every example is derived from a
fixed seed and nothing is stored between runs, so the suite is
deterministic.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import listcolor as lc
from listcolor import io as lio
from listcolor.cli import main


def fuzz(examples: int):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=examples)


MODES = ("shannon", "vizing", "koenig")
BOUND_RUNS = [["--mode", m] for m in MODES]
EXPLICIT_RUNS = [["--mode", "explicit", "--assume-bound", m] for m in MODES]


def runs_for(lists):
    """The ``color`` arguments an instance with or without lists takes."""
    return st.sampled_from(BOUND_RUNS if lists is None else EXPLICIT_RUNS)


@st.composite
def instances(draw):
    """A multigraph on n <= 8 vertices with m <= 12 edges, and either no
    lists or a nonempty list per edge: one shared set, a set per edge, or
    a mode's bound lists with extra colors, which meet that bound."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), min_size=1, max_size=12))
    g = lc.Multigraph(n, edges)
    kind = draw(st.sampled_from(["none", "shared", "per-edge", "bound"]))
    if kind == "none":
        return g, None
    color_set = st.frozensets(st.integers(1, 12), min_size=1, max_size=8)
    if kind == "shared":
        return g, lc.ListAssignment(g, [draw(color_set)] * g.m)
    if kind == "per-edge":
        return g, lc.ListAssignment(g, [draw(color_set) for _ in range(g.m)])
    bound = lc.generate_from_bounds(g, draw(st.sampled_from(["shannon", "vizing"])))
    extra = st.frozensets(st.integers(1, 30), max_size=3)
    return g, lc.ListAssignment(g, [s | draw(extra) for s in bound.lists])


def instance_text(draw, g, lists):
    """The instance in any form the grammar allows (comments, blank lines,
    extra spaces, unsorted and repeated colors), then perhaps damaged at
    the grammar level: a line dropped, repeated or replaced, a wrong count."""
    lines = [f"p edge {g.n} {g.m}"]
    for e, (u, v) in enumerate(g.endpoints):
        colors = [] if lists is None else draw(st.permutations(sorted(lists.lists[e])))
        colors += draw(st.lists(st.sampled_from(colors), max_size=2)) if colors else []
        lines.append(" ".join(["e", str(u), str(v), *map(str, colors)]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["c a comment", "", "   ", "c"])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        junk = st.sampled_from([
            "", "p edge 3 1", f"p edge {g.n} {g.m + 1}", "p edge -1 0", "e 0 0",
            "e 0 9", "e 0 1 0", "e 0 1 x", "e 1", "q", "p edge 1000000001 1",
        ])
        how = draw(st.sampled_from(["drop", "repeat", "replace"]))
        if how == "drop":
            del lines[at]
        elif how == "repeat":
            lines.insert(at, lines[at])
        else:
            lines[at] = draw(junk)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def mutate(draw, data: bytes) -> bytes:
    """Up to three byte-level insertions, deletions or replacements."""
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b" \n\t-0123456789epc\x00\xff\xe2"))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        if how == "insert" or at == len(data):
            data.insert(at, byte)
        elif how == "delete":
            del data[at]
        else:
            data[at] = byte
    return bytes(data)


@fuzz(80)
@given(instances())
def test_write_then_parse_round_trips(instance):
    g, lists = instance
    text = lio.write_instance(g, lists)
    g2, lists2 = lio.parse_instance(text)
    assert lio.write_instance(g2, lists2) == text
    assert (g2.n, g2.endpoints) == (g.n, g.endpoints)
    # an instance without edges carries no lists, whatever it was built with
    assert (lists2.lists if lists2 else ()) == (lists.lists if lists else ())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(*argv):
    code = main([str(a) for a in argv])
    assert code in (0, 1, 2), f"exit {code} for {argv}"
    return code


def color_then_verify(work, data: bytes, run_args) -> None:
    """``color`` exits 0, 1 or 2; when it exits 0, ``verify`` accepts what
    it wrote.  ``verify`` and ``oracle`` on the same text exit 0, 1 or 2."""
    inst, out = work / "inst.txt", work / "out.col"
    inst.write_bytes(data)
    verify_args = run_args[:2] if run_args[1] != "explicit" else []
    if run("color", inst, *run_args, "-o", out) == 0:
        assert run("verify", inst, out, *verify_args) == 0
    run("oracle", inst, *verify_args, "--limit", 6, "-o", work / "oracle.col")


@fuzz(50)
@given(st.data())
def test_cli_on_grammar_aware_instances(work, data):
    g, lists = data.draw(instances())
    text = instance_text(data.draw, g, lists)
    color_then_verify(work, text.encode(), data.draw(runs_for(lists)))


@fuzz(50)
@given(st.data())
def test_cli_on_byte_mutated_instances(work, data):
    g, lists = data.draw(instances())
    text = mutate(data.draw, lio.write_instance(g, lists).encode())
    color_then_verify(work, text, data.draw(runs_for(lists)))


@fuzz(40)
@given(st.data())
def test_cli_verify_on_generated_colorings(work, data):
    g, lists = data.draw(instances())
    (work / "inst.txt").write_text(lio.write_instance(g, lists))
    color = st.one_of(st.none(), st.integers(-1, 13))
    colors = data.draw(st.lists(color, min_size=g.m, max_size=g.m))
    text = mutate(data.draw, lio.write_coloring(colors).encode())
    (work / "in.col").write_bytes(text)
    mode = data.draw(runs_for(None)) if lists is None else []
    run("verify", work / "inst.txt", work / "in.col", *mode)


@fuzz(50)
@given(
    n=st.integers(-1, 9), max_degree=st.integers(-1, 6),
    max_multiplicity=st.integers(-1, 3), edges=st.one_of(st.none(), st.integers(-1, 12)),
    bipartite=st.booleans(), seed=st.integers(0, 3),
    lists=st.sampled_from([None, "shannon", "vizing", "koenig"]),
)
def test_cli_gen_then_color(work, n, max_degree, max_multiplicity, edges, bipartite,
                            seed, lists):
    argv = ["gen", f"-n={n}", f"--max-degree={max_degree}",
            f"--max-multiplicity={max_multiplicity}", f"--seed={seed}",
            "-o", work / "gen.txt"]
    argv += [] if edges is None else [f"--edges={edges}"]
    argv += ["--bipartite"] if bipartite else []
    argv += [] if lists is None else ["--lists", lists]
    if run(*argv) != 0:
        return
    text = (work / "gen.txt").read_text()
    assert lio.write_instance(*lio.parse_instance(text)) == text
    run_args = EXPLICIT_RUNS[MODES.index(lists)] if lists else ["--mode", "vizing"]
    color_then_verify(work, text.encode(), run_args)
