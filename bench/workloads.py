"""The benchmark's workloads: set-up, the timed call, and the check after it.

``scale`` and ``dense`` call ``color_graph`` on instances the program has
parsed from files at set-up; ``files`` calls the command line's ``main``
once per instance file, parse and write included.  Each workload's
``run`` is the only timed code; ``inspect`` afterwards turns the result into
a color vector and run counters, checks them with the independent checker
and also returns the check's time.  ``run`` takes the trace sink of a
traced run, or None.
"""

from __future__ import annotations

import contextlib
import io as stdio
import os
from dataclasses import dataclass
from time import perf_counter_ns

import check
from inputs import INSTANCES, Instance, instance_text


class CheckFailed(Exception):
    """The program's output failed the benchmark's own check."""


@dataclass
class Case:
    inst: Instance
    path: str
    out: str
    trace: str
    args: tuple = ()  # color_graph arguments or the command line
    verified: bool = False  # the program's own verify has accepted it


PROBE_REPEATS = 5


def _check(case: Case, colors) -> int:
    """Check ``colors`` with the benchmark's checker; its mean time in ns.

    The check's work depends only on the instance, so its time measures the
    machine's speed at that moment.  It runs ``PROBE_REPEATS`` times, so
    that a short check samples more than a moment.
    """
    t0 = perf_counter_ns()
    for _ in range(PROBE_REPEATS):
        problems = check.check_coloring(case.inst, colors)
    elapsed = (perf_counter_ns() - t0) // PROBE_REPEATS
    if problems:
        raise CheckFailed(f"{case.inst.name}: {problems[0]}")
    return elapsed


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


class Workload:
    """Writes each instance to a file at set-up; subclasses say how to call."""

    def __init__(self, name, prog, workdir):
        self.name, self.prog, self.workdir = name, prog, workdir

    def setup(self, seed: int, instances=None) -> list[Case]:
        cases = []
        for inst in INSTANCES[self.name](seed) if instances is None else instances:
            base = os.path.join(self.workdir, inst.name)
            case = Case(inst, base + ".txt", base + ".col", base + ".trace")
            _write(case.path, instance_text(inst))
            case.args = self.prepare(case)
            cases.append(case)
        return cases


class EngineWorkload(Workload):
    """Instances parsed once at set-up, each colored by ``color_graph``."""

    def prepare(self, case: Case) -> tuple:
        g, lists = self.prog.io.parse_instance(_read(case.path))
        if lists is None:
            lists = self.prog.lists.generate_from_bounds(g, case.inst.mode)
        return g, lists, case.inst.mode, case.inst.assume

    def run(self, case: Case, sink):
        g, lists, mode, assume = case.args
        return self.prog.engine.color_graph(g, lists, mode, assume_bound=assume,
                                            trace=sink)

    def inspect(self, case: Case, result):
        phi, stats = result
        colors = list(phi.color)
        probe_ns = _check(case, colors)
        if not case.verified:
            self._program_verify(case, colors)
            case.verified = True
        return colors, check.counters(stats.steps, stats.content_steps,
                                      stats.fan_shifts, stats.path_shifts,
                                      stats.max_chain_length), probe_ns

    def _program_verify(self, case: Case, colors) -> None:
        """``listcolor verify`` must accept what the checker accepted."""
        _write(case.out, self.prog.io.write_coloring(colors))
        argv = ["verify", case.path, case.out]
        if case.inst.lists is None:
            argv += ["--mode", case.inst.mode]
        with contextlib.redirect_stdout(stdio.StringIO()):
            rc = self.prog.cli.main(argv)
        if rc != 0:
            raise CheckFailed(f"{case.inst.name}: listcolor verify exited {rc}")


class FilesWorkload(Workload):
    """One ``listcolor color`` call per small instance file."""

    def prepare(self, case: Case) -> tuple:
        argv = ["color", case.path, "--mode", case.inst.mode]
        if case.inst.assume:
            argv += ["--assume-bound", case.inst.assume]
        return tuple(argv + ["-o", case.out, "--trace", case.trace])

    def run(self, case: Case, sink):
        # The command line writes its own trace file; a traced run counts
        # its records where it formats them.
        return self.prog.cli.main(list(case.args))

    def inspect(self, case: Case, rc):
        if rc != 0:
            raise CheckFailed(f"{case.inst.name}: listcolor color exited {rc}")
        try:
            colors = check.parse_coloring_text(_read(case.out), case.inst.m)
            counters = check.trace_counters(_read(case.trace), case.inst.m)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"{case.inst.name}: unreadable output: {exc}")
        finally:
            for path in (case.out, case.trace):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        return colors, counters, _check(case, colors)


def make_workload(name: str, prog, workdir: str) -> Workload:
    cls = FilesWorkload if name == "files" else EngineWorkload
    return cls(name, prog, workdir)
