import io
import json
import sys
from pathlib import Path

import pytest

import listcolor as lc
from listcolor import cli, vizing
from listcolor import io as lio
from listcolor.cli import build_parser, main
from listcolor.errors import COLOR_CLASH, EdgeNotBlankError, NotShiftableError

TRIANGLE = "p edge 3 3\ne 0 1\ne 1 2\ne 0 2\n"
PATH2 = "p edge 3 2\ne 0 1 1 2\ne 1 2 1 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_color_and_verify_roundtrip(tmp_path, capsys):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    colf = str(tmp_path / "col.txt")
    code, out, err = run(capsys, "color", inst, "--mode", "shannon", "-o", colf)
    assert code == 0
    code, out, err = run(capsys, "verify", inst, colf, "--mode", "shannon")
    assert code == 0
    assert "ok" in out


def test_verify_rejects_clash(tmp_path, capsys):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    colf = str(tmp_path / "col.txt")
    code, _, _ = run(capsys, "color", inst, "--mode", "vizing", "-o", colf)
    assert code == 0
    colors = lio.parse_coloring(Path(colf).read_text(), 3)
    colors[1] = colors[0]  # edges 0 and 1 share vertex 1
    bad = write(tmp_path, "bad.txt", lio.write_coloring(colors))
    code, out, err = run(capsys, "verify", inst, bad, "--mode", "vizing")
    assert code == 1
    assert "ImproperAssignment" in err


def test_verify_rejects_incomplete(tmp_path, capsys):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    bad = write(tmp_path, "partial.txt", "0 1\n1 -\n2 2\n")
    code, out, err = run(capsys, "verify", inst, bad, "--mode", "vizing")
    assert code == 1
    assert "incomplete" in err


def test_empty_coloring_file_is_reported_at_line_one(tmp_path, capsys):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    empty = write(tmp_path, "empty.col", "")
    code, out, err = run(capsys, "verify", inst, empty, "--mode", "vizing")
    assert code == 2
    assert "line 1:" in err


def test_explicit_mode_flow(tmp_path, capsys):
    inst = write(tmp_path, "p.txt", PATH2)
    code, out, err = run(
        capsys, "color", inst, "--mode", "explicit", "--assume-bound", "koenig"
    )
    assert code == 0
    colors = lio.parse_coloring(out, 2)
    assert None not in colors


def test_explicit_needs_assume_bound(tmp_path, capsys):
    inst = write(tmp_path, "p.txt", PATH2)
    code, _, err = run(capsys, "color", inst, "--mode", "explicit")
    assert code == 2


def test_assume_bound_refused_outside_explicit_mode(tmp_path, capsys):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, err = run(capsys, "color", inst, "--mode", "vizing", "--assume-bound", "shannon")
    assert code == 2 and out == ""
    assert "--assume-bound applies only to --mode explicit" in err


def test_bound_mode_rejects_explicit_instance(tmp_path, capsys):
    inst = write(tmp_path, "p.txt", PATH2)
    code, _, err = run(capsys, "color", inst, "--mode", "vizing")
    assert code == 2


def test_koenig_on_triangle_exits_one(tmp_path, capsys):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    code, _, err = run(capsys, "color", inst, "--mode", "koenig")
    assert code == 1


def test_parse_error_exits_two(tmp_path, capsys):
    inst = write(tmp_path, "bad.txt", "garbage\n")
    code, _, err = run(capsys, "color", inst, "--mode", "vizing")
    assert code == 2


def test_insufficient_explicit_lists_exit_one(tmp_path, capsys):
    inst = write(tmp_path, "weak.txt", "p edge 2 1\ne 0 1 1\n")
    code, _, err = run(
        capsys, "color", inst, "--mode", "explicit", "--assume-bound", "vizing"
    )
    assert code == 1


@pytest.mark.parametrize("error", [
    NotShiftableError(1, COLOR_CLASH),
    EdgeNotBlankError("edge 0 is not blank"),
])
def test_engine_misuse_inside_color_exits_three(tmp_path, capsys, monkeypatch, error):
    # a misused engine call is a bug in the package, not bad input
    def broken(phi, e, x):
        raise error

    monkeypatch.setattr(vizing, "classify_vizing", broken)
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, err = run(capsys, "color", inst, "--mode", "vizing")
    assert code == 3
    assert type(error).__name__ in err
    assert out == ""


def test_oracle_agrees_with_color(tmp_path, capsys):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, _ = run(capsys, "oracle", inst, "--mode", "shannon")
    assert code == 0
    colors = lio.parse_coloring(out, 3)
    g, _ = lio.parse_instance(TRIANGLE)
    L = lc.generate_from_bounds(g, "shannon")
    assert not lc.check_edge_colors(g, L, colors)


def test_oracle_reports_infeasible(tmp_path, capsys):
    inst = write(
        tmp_path, "tight.txt",
        "p edge 3 3\ne 0 1 1 2\ne 1 2 1 2\ne 0 2 1 2\n",
    )
    code, out, _ = run(capsys, "oracle", inst)
    assert code == 0
    assert "no coloring" in out


def test_oracle_on_1500_edges_does_not_recurse(tmp_path, capsys):
    # one stack frame per edge used to overflow on this path-like instance
    inst = str(tmp_path / "long.txt")
    code, _, _ = run(
        capsys, "gen", "-n", "3000", "--max-degree", "2", "--edges", "1500",
        "--seed", "1", "-o", inst,
    )
    assert code == 0
    colf = str(tmp_path / "col.txt")
    code, _, err = run(
        capsys, "oracle", inst, "--mode", "vizing", "--limit", "5000", "-o", colf
    )
    assert code == 0, err
    code, out, _ = run(capsys, "verify", inst, colf, "--mode", "vizing")
    assert code == 0
    assert "ok: 1500 edges" in out


@pytest.mark.parametrize("command", [
    ["color", "INST", "--mode", "shannon"],
    ["oracle", "INST", "--mode", "shannon"],
    ["gen", "-n", "5", "--max-degree", "2"],
])
def test_unwritable_output_exits_two(tmp_path, capsys, command):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    argv = [inst if a == "INST" else a for a in command]
    missing = str(tmp_path / "no" / "such" / "dir" / "x.txt")
    code, _, err = run(capsys, *argv, "-o", missing)
    assert code == 2
    assert "cannot write" in err


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out_path = str(tmp_path / "gen.txt")
    code, _, _ = run(
        capsys, "gen", "-n", "8", "--max-degree", "4", "--max-multiplicity", "2",
        "--seed", "5", "--edges", "10", "-o", out_path,
    )
    assert code == 0
    g, L = lio.parse_instance(Path(out_path).read_text())
    assert g.n == 8 and L is None


def test_gen_rejects_negative_edge_count(capsys):
    code, out, err = run(capsys, "gen", "-n", "5", "--max-degree", "2", "--edges", "-3")
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_gen_with_lists_then_color(tmp_path, capsys):
    out_path = str(tmp_path / "gen.txt")
    code, _, _ = run(
        capsys, "gen", "-n", "6", "--max-degree", "3", "--seed", "2",
        "--edges", "7", "--lists", "vizing", "-o", out_path,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "color", out_path, "--mode", "explicit", "--assume-bound", "vizing"
    )
    assert code == 0


def test_trace_and_stats_flags(tmp_path, capsys):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    trace_path = str(tmp_path / "trace.txt")
    code, out, err = run(
        capsys, "color", inst, "--mode", "shannon",
        "--trace", trace_path, "--stats", "-o", str(tmp_path / "c.txt"),
    )
    assert code == 0
    assert json.loads(err)["happy_steps"] == 3
    lines = Path(trace_path).read_text().splitlines()
    assert len(lines) == 3
    assert all(len(line.split()) == 6 for line in lines)


def test_unwritable_trace_exits_two_before_any_output(tmp_path, capsys):
    # the trace opens before the run, so a directory fails it before -o is written
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    colf = tmp_path / "c.txt"
    code, out, err = run(
        capsys, "color", inst, "--mode", "shannon", "--trace", str(tmp_path), "-o", str(colf),
    )
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path}")
    assert out == "" and not colf.exists()


def test_unwritable_output_exits_two_before_the_run(tmp_path, capsys, monkeypatch):
    # -o opens before the run too: a directory fails it, and the trace that
    # opened first holds no line
    def never(*args, **kwargs):
        raise AssertionError("color_graph ran")

    monkeypatch.setattr(cli, "color_graph", never)
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    trace = tmp_path / "t.txt"
    code, out, err = run(
        capsys, "color", inst, "--mode", "shannon", "--trace", str(trace), "-o", str(tmp_path),
    )
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path}")
    assert out == "" and trace.read_text() == ""


def test_trace_and_output_must_differ(tmp_path, capsys):
    # both open before the run, so one path for both would lose the coloring
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    same = tmp_path / "same.txt"
    code, out, err = run(
        capsys, "color", inst, "--mode", "vizing", "--trace", str(same), "-o", str(same),
    )
    assert code == 2 and out == "" and not same.exists()
    assert "--trace and -o name the same file" in err
    code, out, _ = run(capsys, "color", inst, "--mode", "vizing", "--trace", "-", "-o", "-")
    assert code == 0 and len(out.splitlines()) == 6  # three trace lines, three colors


@pytest.mark.parametrize("spelling", ["dot-slash", "symlink", "hard-link"])
def test_trace_and_output_refused_as_one_file_by_another_path(
    tmp_path, capsys, monkeypatch, spelling
):
    def never(*args, **kwargs):
        raise AssertionError("color_graph ran")

    monkeypatch.setattr(cli, "color_graph", never)
    monkeypatch.chdir(tmp_path)
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    if spelling == "symlink":  # dangling: t.txt does not exist yet
        (tmp_path / "link.txt").symlink_to(tmp_path / "t.txt")
        other = "link.txt"
    elif spelling == "hard-link":
        (tmp_path / "t.txt").write_text("kept\n")
        (tmp_path / "link.txt").hardlink_to(tmp_path / "t.txt")
        other = "link.txt"
    else:
        other = "./t.txt"
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run(
        capsys, "color", inst, "--mode", "vizing", "--trace", "t.txt", "-o", other,
    )
    assert code == 2 and out == ""
    assert "--trace and -o name the same file" in err
    # refused before either path opens: nothing created, nothing truncated
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if spelling == "hard-link":
        assert (tmp_path / "t.txt").read_text() == "kept\n"


def test_trace_and_output_may_share_a_device(tmp_path, capsys):
    # two writers to one device stream never overwrite each other
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    (tmp_path / "null").symlink_to("/dev/null")
    code, out, _ = run(
        capsys, "color", inst, "--mode", "vizing",
        "--trace", "/dev/null", "-o", str(tmp_path / "null"),
    )
    assert code == 0 and out == ""


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_mode_refused_on_an_instance_with_lists(tmp_path, capsys, command):
    # color refuses a bound mode on explicit lists; verify and oracle used
    # to ignore it and check against the file's lists
    inst = write(tmp_path, "p.txt", PATH2)
    col = write(tmp_path, "p.col", "0 1\n1 2\n")
    argv = [command, inst] + ([col] if command == "verify" else [])
    code, _, _ = run(capsys, *argv)
    assert code == 0
    code, out, err = run(capsys, *argv, "--mode", "shannon")
    assert code == 2 and out == ""
    assert "instance carries explicit lists" in err


# The argv of each subcommand that reads files; BAD marks the bad input.
# verify reads two files, so the bad one goes in each slot in turn.
READERS = {
    "color": ["color", "BAD", "--mode", "vizing"],
    "verify": ["verify", "TRI", "BAD", "--mode", "vizing"],
    "verify-instance": ["verify", "BAD", "TRI", "--mode", "vizing"],
    "oracle": ["oracle", "BAD", "--mode", "vizing"],
}


def reader_argv(command, tri, bad):
    return [{"TRI": tri, "BAD": bad}.get(a, a) for a in READERS[command]]


@pytest.mark.parametrize("command", sorted(READERS))
def test_non_utf8_stdin_exits_two(tmp_path, capsys, monkeypatch, command):
    # a non-UTF-8 file is one of the cases of the test below
    tri = write(tmp_path, "tri.txt", TRIANGLE)
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), "utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, *reader_argv(command, tri, "-"))
    assert code == 2
    assert err.startswith("error: cannot read -")
    assert out == ""


def make_bad_input(tmp_path, kind):
    p = tmp_path / kind
    if kind == "non-utf8":
        p.write_bytes(b"\xff\xfe")
    elif kind == "empty":
        p.write_text("")
    elif kind == "directory":
        p.mkdir()
    elif kind == "garbage-header":
        p.write_text("p graph three\ne 0 1\n")
    elif kind == "malformed-coloring-line":
        p.write_text("0 1\n1 one\n2 2\n")
    return str(p)  # "missing" is never created


@pytest.mark.parametrize("kind", [
    "non-utf8", "empty", "missing", "directory", "garbage-header",
    "malformed-coloring-line",
])
@pytest.mark.parametrize("command", sorted(READERS))
def test_bad_input_never_escapes_main(tmp_path, capsys, command, kind):
    # every bad file ends in exit 2 with an error line, never an exception
    tri = write(tmp_path, "tri.txt", TRIANGLE)
    bad = make_bad_input(tmp_path, kind)
    code, out, err = run(capsys, *reader_argv(command, tri, bad))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    tri = write(tmp_path, "tri.txt", TRIANGLE)
    code, _, err = run(capsys, "color", tri, "--mode", "shannon", "--stats")
    assert code == 0 and json.loads(err)["happy_steps"] == 3
    code, _, err = run(capsys, "color", tri, "--mode", "shannon")
    assert code == 0 and err == ""

    path2 = write(tmp_path, "p.txt", PATH2)
    code, _, _ = run(
        capsys, "color", path2, "--mode", "explicit", "--assume-bound", "koenig"
    )
    assert code == 0
    code, _, err = run(capsys, "color", path2, "--mode", "explicit")
    assert code == 2 and "requires --assume-bound" in err

    colf = str(tmp_path / "col.txt")
    code, out, _ = run(capsys, "color", tri, "--mode", "shannon", "-o", colf)
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "color", tri, "--mode", "shannon")
    assert code == 0
    assert out == Path(colf).read_text()
