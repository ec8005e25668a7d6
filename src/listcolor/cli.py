"""Command-line interface.

Subcommands: color, verify, oracle, gen.  Exit codes: 0 success,
1 bound violation or failed verification, 2 malformed input (non-UTF-8
text included), input too large for memory, an infeasible request or an
output that cannot be written (named in the message, stdout as ``-``),
3 a bug in this package, never the input: an internal assertion or any
other package error, such as a misused shift or assignment.

``main(argv)`` may be called repeatedly in one process; the argument
parser is built once, on the first call, and reused.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import stat
import sys

from . import io as lio
from .coloring import check_edge_colors
from .engine import color_graph
from .errors import (
    BoundViolationError,
    InputError,
    InternalAssertionError,
    ListColorError,
    NotBipartiteError,
)
from .lists import BOUND_MODES, MODES, generate_from_bounds
from .oracle import DEFAULT_LIMIT, exhaustive_color

EXIT_OK = 0
EXIT_BOUND = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _drop(stream) -> None:
    """Point this process's own stdout or stderr at the null device after a
    write to it failed, so that the interpreter's flush at exit neither
    fails again on the bytes still buffered nor turns the exit code into
    120.  A stream that a caller put in their place is left to them."""
    if stream is sys.__stdout__ or stream is sys.__stderr__:
        with contextlib.suppress(OSError, ValueError):
            fd = stream.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)


def _cannot_write(name: str, stream, exc: OSError) -> InputError:
    """The error for a failed open, write or flush of the output ``name``;
    ``stream`` is the stream that failed, if it is open."""
    _drop(stream)
    return InputError(f"cannot write {name}: {exc}")


@contextlib.contextmanager
def _naming(name: str, stream=None):
    """An OSError inside becomes ``_cannot_write``'s InputError."""
    try:
        yield
    except OSError as exc:
        raise _cannot_write(name, stream, exc)


def _say(line: str, err: bool = False) -> None:
    """Print ``line`` on stdout (named ``-``), or on stderr for ``err``,
    and flush it, so that a failure is reported here and named."""
    stream, name = (sys.stderr, "stderr") if err else (sys.stdout, "-")
    with _naming(name, stream):
        print(line, file=stream, flush=True)


@contextlib.contextmanager
def _output(path):
    """A ``write(text)`` to ``path``, stdout for None or ``-``, opened on
    entry, so a bad path fails before any work done inside.  Its open,
    writes and final flush raise InputError naming this output alone,
    stdout as ``-``; whatever else the body raises passes through."""
    name = "-" if path is None else path
    std = name == "-"
    with _naming(name):
        f = sys.stdout if std else open(path, "w")

    def write(text: str) -> None:
        try:
            f.write(text)
        except OSError as exc:
            raise _cannot_write(name, f, exc)

    try:
        yield write
        with _naming(name, f):
            f.flush()
    finally:
        if not std:
            with contextlib.suppress(OSError):  # flushed above, or the body failed
                f.close()


def _refuse_shared_files(*named) -> None:
    """Refuse, before any output opens, two (label, path) pairs that reach
    one regular file by any spelling or link; each path is stat-ed once.
    ``-`` and None are standard streams, and devices (a terminal,
    ``/dev/null``) never overwrite each other."""
    seen = {}  # what a path reaches -> its label
    for label, path in named:
        if path in (None, "-"):
            continue
        try:
            st = os.stat(path)
        except OSError:  # not there yet: where the path leads
            reached = os.path.realpath(path)
        else:
            if not stat.S_ISREG(st.st_mode):
                continue
            reached = (st.st_dev, st.st_ino)
        if reached in seen:
            raise InputError(f"{seen[reached]} and {label} name the same file")
        seen[reached] = label


def _resolve_lists(g, file_lists, mode, where: str):
    """Lists for a run: explicit instances carry them, bound modes derive them.

    A mode of None (``verify`` and ``oracle`` without ``--mode``) takes the
    instance's lists, or None when it has none.
    """
    if file_lists is not None:
        if mode not in (None, "explicit"):
            raise InputError(
                f"{where}: instance carries explicit lists; "
                f"--mode {mode} is only for instances without them"
            )
        return file_lists
    if mode == "explicit":
        raise InputError(f"{where}: explicit mode needs lists in the instance")
    return None if mode is None else generate_from_bounds(g, mode)


def cmd_color(args) -> int:
    g, file_lists = lio.parse_instance(_read(args.instance))
    if args.mode == "explicit" and args.assume_bound is None:
        raise InputError("--mode explicit requires --assume-bound")
    if args.mode != "explicit" and args.assume_bound is not None:
        raise InputError("--assume-bound applies only to --mode explicit")
    _refuse_shared_files(
        ("the instance", args.instance), ("--trace", args.trace), ("-o", args.output)
    )
    lists = _resolve_lists(g, file_lists, args.mode, args.instance)
    # the trace opens first, then -o, both before the run: a bad path fails
    # before any work and leaves no coloring file behind a bad trace path
    with (
        _output(args.trace) if args.trace else contextlib.nullcontext() as trace,
        _output(args.output) as out,
    ):
        sink = trace and (lambda rec: trace(lio.format_trace_record(rec) + "\n"))
        phi, stats = color_graph(
            g, lists, args.mode, assume_bound=args.assume_bound, trace=sink
        )
        out(lio.write_coloring(phi.color))
    if args.stats:
        _say(json.dumps({"edges": g.m, **dataclasses.asdict(stats)}), err=True)
    return EXIT_OK


def cmd_verify(args) -> int:
    g, file_lists = lio.parse_instance(_read(args.instance))
    colors = lio.parse_coloring(_read(args.coloring), g.m)
    lists = _resolve_lists(g, file_lists, args.mode, args.instance)
    findings = check_edge_colors(g, lists, colors)
    blanks = sum(1 for c in colors if c is None)
    for kind, detail in findings:
        _say(f"{kind}: {detail}", err=True)
    if blanks:
        _say(f"incomplete: {blanks} edges blank", err=True)
    if findings or blanks:
        return EXIT_BOUND
    _say(f"ok: {g.m} edges properly colored")
    return EXIT_OK


def cmd_oracle(args) -> int:
    g, file_lists = lio.parse_instance(_read(args.instance))
    lists = _resolve_lists(g, file_lists, args.mode, args.instance)
    if lists is None:
        raise InputError("instance has no lists; pass --mode to derive them")
    _refuse_shared_files(("the instance", args.instance), ("-o", args.output))
    # -o opens before the search: a bad path fails first, and no coloring
    # leaves the file empty rather than keeping an older one
    with _output(args.output) as out:
        colors = exhaustive_color(g, lists, limit=args.limit)
        if colors is None:
            _say("no coloring")
        else:
            out(lio.write_coloring(colors))
    return EXIT_OK


def cmd_gen(args) -> int:
    g = lio.generate_random(
        args.n,
        args.max_degree,
        args.max_multiplicity,
        bipartite=args.bipartite,
        seed=args.seed,
        edges=args.edges,
    )
    lists = generate_from_bounds(g, args.lists) if args.lists else None
    with _output(args.output) as out:
        out(lio.write_instance(g, lists))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listcolor",
        description="Proper list edge-coloring of loopless multigraphs "
        "under local list-size guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color an instance")
    p.add_argument("instance")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--assume-bound", choices=BOUND_MODES,
                   help="guarantee the explicit lists satisfy")
    p.add_argument("--trace", help="write per-shift trace records to this file")
    p.add_argument("--stats", action="store_true", help="print run counters to stderr")
    p.add_argument("-o", "--output", help="coloring output file (default stdout)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring against an instance")
    p.add_argument("instance")
    p.add_argument("coloring")
    p.add_argument("--mode", choices=BOUND_MODES,
                   help="derive bound lists when the instance has none")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive search on a small instance")
    p.add_argument("instance")
    p.add_argument("--mode", choices=BOUND_MODES,
                   help="derive bound lists when the instance has none")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                   help=f"edge-count cap (default {DEFAULT_LIMIT})")
    p.add_argument("-o", "--output", help="coloring output file (default stdout)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--max-multiplicity", type=int, default=1)
    p.add_argument("--edges", type=int, help="target edge count")
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lists", choices=BOUND_MODES,
                   help="embed bound-derived lists as explicit lists")
    p.add_argument("-o", "--output", help="instance output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    return parser


def _report(code: int, message: str) -> int:
    """Print ``message`` on stderr and return ``code``.  A stderr that
    cannot take it is dropped: the exit code still says what went wrong."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        _drop(sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        return _report(EXIT_INPUT, f"error: {exc}")
    except MemoryError:
        return _report(EXIT_INPUT, "error: out of memory: the input is too large for this run")
    except (BoundViolationError, NotBipartiteError) as exc:
        return _report(EXIT_BOUND, f"bound violation: {exc}")
    except InternalAssertionError as exc:
        return _report(EXIT_INTERNAL, f"internal assertion: {exc}")
    except ListColorError as exc:
        # engine misuse (shift, assign, precondition) is a bug here too
        return _report(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
