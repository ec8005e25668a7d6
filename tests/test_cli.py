import errno
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import listcolor as lc
from listcolor import cli, engine
from listcolor import io as lio
from listcolor.cli import build_parser, main
from listcolor.errors import COLOR_CLASH, NotShiftableError, PreconditionViolatedError

from conftest import Miscounted

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


def stdin_bytes(monkeypatch, data):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))


@pytest.mark.parametrize("mode", ["shannon", "vizing", "koenig"])
def test_color_and_verify_roundtrip(tmp_path, capsys, monkeypatch, mode):
    # gen | tee inst.txt | color - -o col.txt, then verify; koenig's
    # instance is bipartite
    inst = str(tmp_path / "inst.txt")
    colf = str(tmp_path / "col.txt")
    bipartite = ["--bipartite"] if mode == "koenig" else []
    code, _, _ = run(capsys, "gen", "-n", "12", "--max-degree", "6",
                     "--max-multiplicity", "2", "--seed", "1", *bipartite, "-o", inst)
    assert code == 0
    stdin_bytes(monkeypatch, Path(inst).read_bytes())
    assert run(capsys, "color", "-", "--mode", mode, "-o", colf) == (0, "", "")
    m = lio.parse_instance(Path(inst).read_text())[0].m
    assert run(capsys, "verify", inst, colf, "--mode", mode) == (
        0, f"ok: {m} edges properly colored\n", "")


# The files a single-command row may name, written to the working directory.
FILES = {
    "tri.txt": TRIANGLE,
    "p.txt": PATH2,
    "clash.col": "0 1\n1 1\n2 2\n",  # edges 0 and 1 share vertex 1
    "partial.col": "0 1\n1 -\n2 2\n",
    "empty.col": "",
    "bad.txt": "garbage\n",
    "weak.txt": "p edge 2 1\ne 0 1 1\n",
    "tight.txt": "p edge 3 3\ne 0 1 1 2\ne 1 2 1 2\ne 0 2 1 2\n",
    "path.txt": "p edge 13 12\n" + "".join(f"e {i} {i + 1}\n" for i in range(12)),
    "e.txt": "p edge 2 0\n",
}

# row -> (argv, exit code, stdout, stderr)
ONE_COMMAND = {
    "verify-rejects-clash": ("verify tri.txt clash.col --mode vizing", 1, "",
                             "ImproperAssignment: color 1 on edges 0 and 1 at vertex 1\n"),
    "verify-rejects-incomplete": ("verify tri.txt partial.col --mode vizing", 1, "",
                                  "incomplete: 1 edges blank\n"),
    "empty-coloring-file-at-line-one": (
        "verify tri.txt empty.col --mode vizing", 2, "",
        "error: line 1: expected 3 lines '<i> <color|->' in index order\n"),
    "explicit-mode-flow": ("color p.txt --mode explicit --assume-bound koenig", 0,
                           "0 1\n1 2\n", ""),
    "explicit-needs-assume-bound": ("color p.txt --mode explicit", 2, "",
                                    "error: --mode explicit requires --assume-bound\n"),
    "explicit-needs-lists": ("color tri.txt --mode explicit --assume-bound vizing", 2, "",
                             "error: tri.txt: explicit mode needs lists in the instance\n"),
    "assume-bound-refused-outside-explicit-mode": (
        "color tri.txt --mode vizing --assume-bound shannon", 2, "",
        "error: --assume-bound applies only to --mode explicit\n"),
    "bound-mode-rejects-explicit-instance": (
        "color p.txt --mode vizing", 2, "",
        "error: p.txt: instance carries explicit lists; --mode vizing is only for"
        " instances without them\n"),
    "koenig-on-triangle-exits-one": ("color tri.txt --mode koenig", 1, "",
                                     "bound violation: koenig bound requires a bipartite graph\n"),
    "parse-error-exits-two": ("color bad.txt --mode vizing", 2, "",
                              "error: line 1: unknown line type 'garbage'\n"),
    "insufficient-explicit-lists-exit-one": (
        "color weak.txt --mode explicit --assume-bound vizing", 1, "",
        "bound violation: vertex 0: common colors 1 below required 2\n"),
    # standard streams may be shared: three trace lines, then three colors
    "trace-and-output-may-share-stdout": (
        "color tri.txt --mode vizing --trace - -o -", 0,
        "0 fan-shift vizing-happy-fan 0 9:12 7:8\n1 fan-shift vizing-happy-fan 1,0 7:8 5:4\n"
        "2 fan-shift vizing-happy-fan 2,0 5:4 3:0\n0 3\n1 1\n2 2\n", ""),
    "oracle-reports-infeasible": ("oracle tight.txt", 0, "no coloring\n", ""),
    "oracle-needs-lists-or-mode": ("oracle tri.txt", 2, "",
                                   "error: instance has no lists; pass --mode to derive them\n"),
    "oracle-past-its-limit-exits-two": (
        "oracle path.txt --mode vizing", 2, "",
        "error: instance has 12 edges, exhaustive search capped at 10\n"),
    # a bad flag is named, not the instance that its cap would refuse
    "oracle-refuses-a-negative-limit": ("oracle e.txt --mode vizing --limit -1", 2, "",
                                        "error: exhaustive search limit -1 is negative\n"),
    "gen-rejects-negative-edge-count": ("gen -n 5 --max-degree 2 --edges -3", 2, "",
                                        "error: counts and caps must be nonnegative\n"),
}


@pytest.mark.parametrize("row", list(ONE_COMMAND))
def test_one_command(tmp_path, capsys, monkeypatch, row):
    argv, code, out, err = ONE_COMMAND[row]
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    assert run(capsys, *argv.split()) == (code, out, err)


def test_verify_prints_one_line_per_finding(tmp_path, capsys):
    # kind: detail per finding in edge order, then the blank count
    inst = write(tmp_path, "tri.txt", "p edge 3 3\ne 0 1 1 2\ne 1 2 1 2\ne 0 2 1 2\n")
    bad = write(tmp_path, "bad.txt", "0 7\n1 7\n2 -\n")
    code, out, err = run(capsys, "verify", inst, bad)
    assert (code, out) == (1, "")
    assert err == (
        "ColorNotInList: edge 0 colored 7 outside its list\n"
        "ColorNotInList: edge 1 colored 7 outside its list\n"
        "ImproperAssignment: color 7 on edges 0 and 1 at vertex 1\n"
        "incomplete: 1 edges blank\n"
    )


@pytest.mark.parametrize("data, code, out, err", [
    # numbers are plain ASCII decimals: int() alone would read 1_0 as 10
    (b"p edge 11 1\ne 0 1_0\n", 2, "", "error: line 2: numbers must be plain ASCII decimals\n"),
    # only ASCII whitespace separates tokens: a UTF-8 no-break space does not
    (b"p edge 2 1\ne 0\xc2\xa01\n", 2, "",
     "error: line 2: tokens must be separated by ASCII whitespace\n"),
    (b"p edge 2 1\ne 1 1\n", 2, "", "error: line 2: loop edge at vertex 1\n"),
    # only a newline ends a line: a form feed inside a comment is comment text
    (b"c a\fb\np edge 2 1\ne 0 1\n", 0, "0 1\n", ""),
], ids=["underscore", "no-break-space", "loop", "form-feed-in-comment"])
def test_color_reads_stdin_by_the_grammar(capsys, monkeypatch, data, code, out, err):
    stdin_bytes(monkeypatch, data)
    assert run(capsys, "color", "-", "--mode", "vizing") == (code, out, err)


@pytest.mark.parametrize("error", [
    NotShiftableError(1, COLOR_CLASH),
    PreconditionViolatedError("edge 0 is not blank"),
])
def test_engine_misuse_inside_color_exits_three(tmp_path, capsys, monkeypatch, error):
    # a misused engine call is a bug in the package, not bad input
    def broken(*args):
        raise error

    monkeypatch.setattr(engine, "augment_once", broken)
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, err = run(capsys, "color", inst, "--mode", "vizing")
    assert code == 3
    assert err == f"internal error: {type(error).__name__}: {error}\n"
    assert out == ""


def test_step_budget_trip_exits_three(tmp_path, capsys, monkeypatch):
    # a budget trip is a bug in the package; the failed run leaves -o empty
    monkeypatch.setattr(engine, "step_budget", lambda phi: 2)
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    out_path = tmp_path / "out.col"
    code, out, err = run(capsys, "color", inst, "--mode", "shannon", "-o", str(out_path))
    assert code == 3
    assert "step 3 exceeds budget 2" in err
    assert out == "" and out_path.read_text() == ""


def test_final_verification_failure_exits_three(tmp_path, capsys, monkeypatch):
    # a cache the run left wrong is a bug in the package, named kind: detail
    monkeypatch.setattr(engine, "PartialColoring", Miscounted)
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    out_path = tmp_path / "out.col"
    code, out, err = run(capsys, "color", inst, "--mode", "shannon", "-o", str(out_path))
    assert code == 3
    assert err == "internal assertion: final verification failed: CacheMismatch: blank edge count\n"
    assert out == "" and out_path.read_text() == ""


def test_oracle_agrees_with_color(tmp_path, capsys):
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, _ = run(capsys, "oracle", inst, "--mode", "shannon")
    assert code == 0
    colors = lio.parse_coloring(out, 3)
    g, _ = lio.parse_instance(TRIANGLE)
    L = lc.generate_from_bounds(g, "shannon")
    assert not lc.check_edge_colors(g, L, colors)


def test_oracle_without_a_coloring_empties_the_output(tmp_path, capsys):
    # -o opens before the search, so a stale coloring there cannot survive
    # to be verified later
    inst = write(tmp_path, "tight.txt", "p edge 3 3\ne 0 1 1 2\ne 1 2 1 2\ne 0 2 1 2\n")
    colf = tmp_path / "out.col"
    colf.write_text("0 1\n1 2\n2 1\n")
    code, out, _ = run(capsys, "oracle", inst, "-o", str(colf))
    assert code == 0
    assert "no coloring" in out
    assert colf.read_text() == ""


def test_oracle_unwritable_output_exits_two_before_the_search(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("exhaustive_color ran")

    monkeypatch.setattr(cli, "exhaustive_color", never)
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    bad = str(tmp_path / "missing" / "x.col")
    code, out, err = run(capsys, "oracle", inst, "--mode", "shannon", "-o", bad)
    assert code == 2
    assert err.startswith(f"error: cannot write {bad}")
    assert out == ""


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


ENOSPC = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
EPIPE = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"

# row -> (argv, the standard stream that fails, exit code, the other
# stream's text); a full trace or stdout fails during the run on big.txt,
# whose trace and coloring outrun a write buffer
FAILED_OUTPUT = {
    "full-trace-is-named-not-o": (
        "color big.txt --mode vizing --trace /dev/full -o out.col", None, 2,
        ("", f"error: cannot write /dev/full: {ENOSPC}\n")),
    "full-trace-beside-stdout": (
        "color big.txt --mode vizing --trace /dev/full", None, 2,
        ("", f"error: cannot write /dev/full: {ENOSPC}\n")),
    "full-stdout-is-named-dash": ("color big.txt --mode vizing", "full stdout", 2,
                                  f"error: cannot write -: {ENOSPC}\n"),
    "closed-pipe-on-stdout-is-named-dash": (
        "color big.txt --mode vizing", "closed stdout", 2, f"error: cannot write -: {EPIPE}\n"),
    "trace-on-a-closed-stdout-is-named-not-o": (
        "color big.txt --mode vizing --trace - -o /dev/null", "closed stdout", 2,
        f"error: cannot write -: {EPIPE}\n"),
    "oracle-no-coloring-line-on-full-stdout": (
        "oracle tight.txt -o /dev/null", "full stdout", 2, f"error: cannot write -: {ENOSPC}\n"),
    "verify-ok-line-on-full-stdout": (
        "verify tri.txt good.col --mode vizing", "full stdout", 2,
        f"error: cannot write -: {ENOSPC}\n"),
    "verify-findings-on-full-stderr": (
        "verify tri.txt clash.col --mode vizing", "full stderr", 2, ""),
    "stats-on-full-stderr": ("color tri.txt --mode vizing --stats", "full stderr", 2,
                             "0 3\n1 1\n2 2\n"),
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("row", list(FAILED_OUTPUT))
def test_a_failed_output_is_named_and_exits_two(tmp_path, row, buffering):
    # a child process, so that the interpreter's own flush of the standard
    # streams at exit is part of what is checked
    argv, failing, code, other = FAILED_OUTPUT[row]
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "good.col").write_text("0 1\n1 2\n2 3\n")
    big = lc.generate_random(300, 10, 1, seed=1)
    (tmp_path / "big.txt").write_text(lio.write_instance(big))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(lc.__file__).parents[1])
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    if failing:
        how, which = failing.split()
        if how == "full":
            streams[which] = os.open("/dev/full", os.O_WRONLY)
        else:  # a pipe whose reader has gone
            reader, streams[which] = os.pipe()
            os.close(reader)
    flags = ["-u"] if buffering == "unbuffered" else []
    try:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "listcolor.cli", *argv.split()], text=True,
            env=env, timeout=60, cwd=tmp_path, **streams)
    finally:
        if failing:
            os.close(streams[which])
    got = (proc.stdout, proc.stderr) if failing is None else (
        proc.stderr if which == "stdout" else proc.stdout)
    assert (proc.returncode, got) == (code, other)


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out_path = str(tmp_path / "gen.txt")
    code, _, _ = run(
        capsys, "gen", "-n", "8", "--max-degree", "4", "--max-multiplicity", "2",
        "--seed", "5", "--edges", "10", "-o", out_path,
    )
    assert code == 0
    g, L = lio.parse_instance(Path(out_path).read_text())
    assert g.n == 8 and L is None


def run_capped(argv, limit=1500 * 2**20, cwd=None):
    """``listcolor argv`` in a child whose address space is capped at
    ``limit`` bytes, so a regression that allocates without bound fails
    fast instead of taking the host; relative paths are under ``cwd``."""
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(Path(lc.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "listcolor.cli", *argv], capture_output=True,
        text=True, env=env, timeout=60, preexec_fn=limit_address_space, cwd=cwd,
    )


@pytest.mark.parametrize("command", ["color", "gen"])
def test_vertex_count_past_the_cap_exits_two(tmp_path, command):
    # refused before anything is sized by n
    n = lio.MAX_VERTICES + 1
    if command == "color":
        inst = write(tmp_path, "huge.txt", f"p edge {n} 1\ne 0 1\n")
        argv = ["color", inst, "--mode", "vizing"]
    else:
        argv = ["gen", "-n", str(n), "--max-degree", "3", "--edges", "1"]
    proc = run_capped(argv)
    assert proc.returncode == 2, proc.stderr
    assert f"vertex count {n} above the cap {lio.MAX_VERTICES}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("edges", [None, str(10**12)])
def test_gen_edge_target_past_the_cap_exits_two(edges):
    # the default target n * delta // 3 and a larger --edges, lowered to
    # n * delta // 2, both stay above the cap; refused before sampling
    n = delta = lio.MAX_VERTICES
    argv = ["gen", "-n", str(n), "--max-degree", str(delta),
            "--max-multiplicity", str(delta)]
    argv += [] if edges is None else ["--edges", edges]
    proc = run_capped(argv)
    target = n * delta // (3 if edges is None else 2)
    assert proc.returncode == 2, proc.stderr
    assert f"edge target {target} above the cap {lio.MAX_EDGES}" in proc.stderr
    assert proc.stdout == ""


def test_gen_target_past_the_cap_that_the_pairs_hold_back_draws():
    # the default target 10 * 10**6 // 3 is above the cap, but ten vertices
    # of multiplicity one hold only 45 edges, so gen draws them
    proc = run_capped(["gen", "-n", "10", "--max-degree", "1000000"])
    assert proc.returncode == 0, proc.stderr
    g, _ = lio.parse_instance(proc.stdout)
    assert g.m == 45


def test_gen_target_far_past_what_the_degree_cap_holds_ends():
    # a matching on 20000 vertices holds 10000 edges: the draw budget
    # follows that count, not the 10**9 asked for, so gen ends well
    # inside the child's timeout
    proc = run_capped(["gen", "-n", "20000", "--max-degree", "1",
                       "--edges", "1000000000", "-o", os.devnull])
    assert proc.returncode == 0, proc.stderr


def test_huge_colors_color_in_bounded_memory(tmp_path):
    # masks are over the ranks of the palette, not over raw colors, so the
    # color 10**9 costs one bit
    inst = write(tmp_path, "big.txt",
                 "p edge 3 2\ne 0 1 1 2 1000000000\ne 1 2 1 2 3 1000000000\n")
    proc = run_capped(["color", inst, "--mode", "explicit",
                                 "--assume-bound", "vizing"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 2\n1 1\n"


@pytest.mark.parametrize("edge, argv", [
    ("e 0 1", ["color", "cap.txt", "--mode", "vizing"]),
    ("e 0 1", ["color", "cap.txt", "--mode", "koenig"]),
    ("e 0 1 1 2", ["color", "cap.txt", "--mode", "explicit", "--assume-bound", "vizing"]),
    ("e 0 1", ["verify", "cap.txt", "cap.col", "--mode", "vizing"]),
    ("e 0 1 1 2", ["verify", "cap.txt", "cap.col"]),
])
def test_one_edge_at_the_vertex_cap_colors_in_350_mib(tmp_path, edge, argv):
    # the isolated vertices share one empty common set, so the run stays
    # well under the address space that a frozenset per vertex needs;
    # verify parses the instance as color does, and checks the coloring
    write(tmp_path, "cap.txt", f"p edge {lio.MAX_VERTICES} 1\n{edge}\n")
    write(tmp_path, "cap.col", "0 1\n")
    proc = run_capped(argv, limit=350 * 2**20, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("0 1\n" if argv[0] == "color" else "ok: 1 edges properly colored\n")


def test_gen_with_lists_then_color(tmp_path, capsys):
    out_path = str(tmp_path / "gen.txt")
    colf = str(tmp_path / "col.txt")
    code, _, _ = run(
        capsys, "gen", "-n", "6", "--max-degree", "3", "--seed", "2",
        "--edges", "7", "--lists", "vizing", "-o", out_path,
    )
    assert code == 0
    assert run(
        capsys, "color", out_path, "--mode", "explicit", "--assume-bound", "vizing",
        "-o", colf,
    ) == (0, "", "")
    # the instance carries its lists, so verify needs no --mode
    assert run(capsys, "verify", out_path, colf) == (0, "ok: 7 edges properly colored\n", "")


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


# sha256 over the coloring, trace and --stats bytes of every run below, in
# order; the traces total 878 lines over 9 branches, vizing's content and
# path branches among them
CLI_DIGEST = "d90b3274459a7e8203543b60379dd65bc77e3bdc40301210b731354e59cb5672"


def pinned_color_runs():
    for seed in (1, 2, 3):
        g = lc.generate_random(16, 10, 3, seed=seed, edges=70)
        b = lc.generate_random(16, 10, 3, bipartite=True, seed=seed, edges=60)
        yield lio.write_instance(g, None), ["--mode", "shannon"]
        yield lio.write_instance(g, None), ["--mode", "vizing"]
        yield lio.write_instance(b, None), ["--mode", "koenig"]
        yield (lio.write_instance(g, lc.generate_from_bounds(g, "vizing")),
               ["--mode", "explicit", "--assume-bound", "vizing"])


def test_color_output_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for k, (text, flags) in enumerate(pinned_color_runs()):
        inst = write(tmp_path, f"{k}.txt", text)
        col, trace = tmp_path / f"{k}.col", tmp_path / f"{k}.trace"
        code, out, err = run(capsys, "color", inst, *flags, "--trace", str(trace),
                             "--stats", "-o", str(col))
        assert (code, out) == (0, "")
        for blob in (col.read_bytes(), trace.read_bytes(), err.encode()):
            digest.update(len(blob).to_bytes(8, "big") + blob)
    assert digest.hexdigest() == CLI_DIGEST


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


@pytest.mark.parametrize("text, argv", [
    # the search and a bound violation each used to leave the instance empty
    (TRIANGLE, ["oracle", "INST", "--mode", "vizing", "-o", "INST"]),
    (PATH2, ["color", "INST", "--mode", "explicit", "--assume-bound", "vizing",
             "-o", "INST"]),
    # a run that succeeds used to replace the instance
    (TRIANGLE, ["color", "INST", "--mode", "vizing", "--trace", "INST", "-o", "OUT"]),
    (TRIANGLE, ["color", "INST", "--mode", "vizing", "-o", "LINK"]),
    (TRIANGLE, ["color", "INST", "--mode", "vizing", "-o", "INST"]),
], ids=["oracle-o", "explicit-o", "trace", "o-by-symlink", "color-o"])
def test_outputs_never_overwrite_the_instance(tmp_path, capsys, text, argv):
    inst = write(tmp_path, "inst.txt", text)
    (tmp_path / "link.txt").symlink_to(inst)
    paths = {"INST": inst, "LINK": str(tmp_path / "link.txt"),
             "OUT": str(tmp_path / "out.col")}
    code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == 2 and out == ""
    assert "the instance and " in err and "name the same file" in err
    assert Path(inst).read_text() == text
    assert not (tmp_path / "out.col").exists()


def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    # README keeps exit 1 for a bound violation; an input too large for
    # memory is refused like any other input the run cannot take
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(lio, "Multigraph", exhausted)
    inst = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, err = run(capsys, "color", inst, "--mode", "vizing")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_input_too_large_for_the_address_space_exits_two(tmp_path):
    # one edge with 3,000,000 colors in its list really runs out of
    # memory under a cap of 400,000 KiB, and the run ends like any other
    # input it cannot take
    text = "p edge 2 1\ne 0 1 " + " ".join(map(str, range(1, 3_000_001))) + "\n"
    inst = write(tmp_path, "big.txt", text)
    proc = run_capped(["color", inst, "--mode", "explicit", "--assume-bound", "vizing"],
                      limit=400_000 * 2**10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: out of memory: the input is too large for this run\n"
    assert proc.stdout == ""


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
    stdin_bytes(monkeypatch, b"\xff\xfe")
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
