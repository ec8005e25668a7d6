"""Command-line interface.

Subcommands: color, verify, oracle, gen.  Exit codes: 0 success,
1 bound violation or failed verification, 2 malformed input (non-UTF-8
text included) or infeasible request, 3 a bug in this package, never the
input: an internal assertion or any other package error, such as a
misused shift or assignment.

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


@contextlib.contextmanager
def _output(path):
    """``path`` opened for writing (stdout for None or ``-``); opened on
    entry, so a bad path fails before any work done inside."""
    std = path is None or path == "-"
    try:
        with contextlib.nullcontext(sys.stdout) if std else open(path, "w") as f:
            yield f
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _same_file(a: str, b: str) -> bool:
    """Whether two output paths reach one regular file, by any spelling or
    link; checked before either opens, so nothing is created.  Two device
    streams (a terminal, ``/dev/null``) never overwrite each other."""
    try:
        sa, sb = os.stat(a), os.stat(b)
    except OSError:  # not there yet: compare where the paths lead
        return os.path.realpath(a) == os.path.realpath(b)
    return stat.S_ISREG(sa.st_mode) and os.path.samestat(sa, sb)


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
    if (
        args.trace not in (None, "-")
        and args.output not in (None, "-")
        and _same_file(args.trace, args.output)
    ):
        raise InputError("--trace and -o name the same file")
    lists = _resolve_lists(g, file_lists, args.mode, args.instance)
    # the trace opens first, then -o, both before the run: a bad path fails
    # before any work and leaves no coloring file behind a bad trace path
    with (
        _output(args.trace) if args.trace else contextlib.nullcontext() as tf,
        _output(args.output) as out,
    ):
        sink = tf and (lambda rec: tf.write(lio.format_trace_record(rec) + "\n"))
        phi, stats = color_graph(
            g, lists, args.mode, assume_bound=args.assume_bound, trace=sink
        )
        out.write(lio.write_coloring(phi.color))
    if args.stats:
        print(json.dumps({"edges": g.m, **dataclasses.asdict(stats)}), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    g, file_lists = lio.parse_instance(_read(args.instance))
    colors = lio.parse_coloring(_read(args.coloring), g.m)
    lists = _resolve_lists(g, file_lists, args.mode, args.instance)
    findings = check_edge_colors(g, lists, colors)
    blanks = sum(1 for c in colors if c is None)
    for f in findings:
        print(f"{f.kind}: {f.detail}", file=sys.stderr)
    if blanks:
        print(f"incomplete: {blanks} edges blank", file=sys.stderr)
    if findings or blanks:
        return EXIT_BOUND
    print(f"ok: {g.m} edges properly colored")
    return EXIT_OK


def cmd_oracle(args) -> int:
    g, file_lists = lio.parse_instance(_read(args.instance))
    lists = _resolve_lists(g, file_lists, args.mode, args.instance)
    if lists is None:
        raise InputError("instance has no lists; pass --mode to derive them")
    # -o opens before the search: a bad path fails first, and no coloring
    # leaves the file empty rather than keeping an older one
    with _output(args.output) as out:
        colors = exhaustive_color(g, lists, limit=args.limit)
        if colors is None:
            print("no coloring")
        else:
            out.write(lio.write_coloring(colors))
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
        out.write(lio.write_instance(g, lists))
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BoundViolationError, NotBipartiteError) as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InternalAssertionError as exc:
        print(f"internal assertion: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ListColorError as exc:
        # engine misuse (shift, assign, precondition) is a bug here too
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
