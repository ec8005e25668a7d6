"""listcolor benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload scale --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the run reports the end-to-end metrics, measured with no
wrappers installed in ``WORKERS`` worker processes started one after the
other, with its times scaled to the reference speed of
``PROBE_REFERENCE_MS``; with ``--trace 1`` it reports the per-layer
metrics of one traced set-up and one traced pass, plus
``trace.overhead``.  The last line of standard output is the JSON result;
the lines before it repeat every metric, the unscaled times, the failure
share, the coloring digest and the run counters for a reader.  Why each
workload exists is written in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import check
from tracer import RUN, SETUP, Tracer
from workloads import CheckFailed, make_workload

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scale", "dense", "files")
# A timed run is split over this many worker processes, started one after
# the other, each with its own set-ups and passes; ``NOTES.md`` says why.
WORKERS = 3
DEADLINE_S = 170  # the whole run, workers included
# The probe (``Passes.probe_ms``) per workload at the reference speed that
# end-to-end times are scaled to: round figures near the median probes of
# the steadiness runs in ``NOTES.md``, which says why and how.
PROBE_REFERENCE_MS = {"scale": 90.0, "dense": 75.0, "files": 28.0}


def load_program() -> SimpleNamespace:
    """Import listcolor from ``src/`` in the checkout, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "listcolor" / "__init__.py").is_file():
        raise ImportError(f"no listcolor package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"listcolor.{name}")
            for name in ("engine", "io", "lists", "cli")}
    origin = Path(mods["engine"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"listcolor imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


@contextlib.contextmanager
def scratch_dir(label: str):
    """A fresh directory under ``.bench_work`` in the checkout, removed after."""
    path = ROOT / ".bench_work" / f"{label}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()  # only when no other run is using it


@dataclass
class Passes:
    """Timed calls over whole passes of a workload's cases.

    Each case is timed once per pass, and the passes of every worker of a
    run are pooled.  Every call of a case does the same work (the passes
    must agree on its coloring and counters); the calls differ by where the
    process placed their data and by what else the machine was doing.  The
    per-call figures use each case's median call.

    After each call the benchmark checks the output with its own checker,
    whose work is fixed by the instance.  Its times are the probe of the
    machine's speed that ``timed_run`` turns into each worker's speed factor.
    """

    sizes: list[int]  # edges per case
    times_ns: list = field(init=False)  # per case, one call time per pass
    probe_ns: list = field(init=False)  # per case, one check time per pass
    bad: set = field(default_factory=set)  # cases with a failed call
    results: dict = field(default_factory=dict)  # case -> (name, digest, counters)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    problems: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.times_ns = [[] for _ in self.sizes]
        self.probe_ns = [[] for _ in self.sizes]

    def ordered_results(self) -> list:
        return [self.results[i] for i in sorted(self.results)]

    def call_ms(self) -> list[float]:
        """Median wall time of each case's calls, in case order."""
        return [statistics.median(t) / 1e6 for t in self.times_ns]

    def probe_ms(self) -> float:
        """The checks' median times, summed over the cases checked."""
        return sum(statistics.median(t) for t in self.probe_ns if t) / 1e6

    def edges_per_s(self) -> float:
        """Edges of the correctly colored cases over their call times."""
        good = [i for i in range(len(self.sizes)) if i not in self.bad]
        ms = self.call_ms()
        total_ms = sum(ms[i] for i in good)
        return sum(self.sizes[i] for i in good) / total_ms * 1e3 if good else 0.0

    def fail(self, case: int, message: str) -> None:
        self.failed += 1
        self.bad.add(case)
        if len(self.problems) < 5:
            self.problems.append(message)

    def to_json(self) -> dict:
        return {"sizes": self.sizes, "times_ns": self.times_ns,
                "probe_ns": self.probe_ns,
                "bad": sorted(self.bad), "results": list(self.results.items()),
                "attempted": self.attempted, "failed": self.failed,
                "passes": self.passes, "problems": self.problems}

    def add(self, part: dict, scale: float = 1.0) -> None:
        """Pool one worker's passes, its call times multiplied by ``scale``.

        Its results must agree with those already pooled.
        """
        for mine, theirs in zip(self.times_ns, part["times_ns"]):
            mine.extend(t * scale for t in theirs)
        for mine, theirs in zip(self.probe_ns, part["probe_ns"]):
            mine.extend(theirs)
        self.attempted += part["attempted"]
        self.failed += part["failed"]
        self.passes += part["passes"]
        self.bad.update(part["bad"])
        self.problems = (self.problems + part["problems"])[:5]
        for i, (name, digest, counters) in part["results"]:
            if self.results.setdefault(i, (name, digest, counters)) != (
                    name, digest, counters):
                self.fail(i, f"{name}: workers differ")


def run_passes(wl, cases, budget_s: float, tracer=None, max_passes=None) -> Passes:
    """Whole passes until about ``budget_s`` has gone (at least one).

    A further pass starts only if half a pass still fits, so the number of
    passes is the budget over the pass time, rounded.  Every pass must give
    the same colorings and counters as the first.  With a ``tracer``, each
    timed call is recorded in its ``run`` phase and the checks are not.

    The cases' inputs stay alive for the whole run.  They are moved out of
    the cyclic collector's reach first, so that no call pays for rescanning
    the benchmark's own heap, which a single run of the program would not
    hold.
    """
    gc.collect()
    gc.freeze()
    out = Passes([c.inst.m for c in cases])
    sink = tracer.record if tracer else None
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for i, case in enumerate(cases):
            out.attempted += 1
            t0 = perf_counter_ns()
            try:
                with tracer.phase(RUN) if tracer else contextlib.nullcontext():
                    raw = wl.run(case, sink)
            except Exception:  # any escape is a failed call; keep measuring
                out.times_ns[i].append(perf_counter_ns() - t0)
                out.fail(i, f"{case.inst.name}: {traceback.format_exc(limit=3)}")
                continue
            out.times_ns[i].append(perf_counter_ns() - t0)
            try:
                colors, counters, probe_ns = wl.inspect(case, raw)
            except CheckFailed as exc:
                out.fail(i, str(exc))
                continue
            except Exception:  # the program's own verify escaped
                out.fail(i, f"{case.inst.name}: {traceback.format_exc(limit=3)}")
                continue
            out.probe_ns[i].append(probe_ns)
            result = (case.inst.name, check.coloring_digest(colors), counters)
            if out.results.setdefault(i, result) != result:
                out.fail(i, f"{case.inst.name}: pass {out.passes + 1} differs")
        out.passes += 1
        now = perf_counter()
        if max_passes is not None and out.passes >= max_passes:
            return out
        if now - start + (now - pass_start) / 2 >= budget_s:
            return out


def summarize(results: list) -> dict:
    """Workload digest and counter totals over one result per case."""
    digest = hashlib.sha256(
        "".join(f"{name}:{d};" for name, d, _ in results).encode()
    ).hexdigest()[:16]
    totals = {k: sum(c[k] for _, _, c in results)
              for k in ("steps", "content_steps", "fan_shifts", "path_shifts")}
    totals["max_chain"] = max((c["max_chain"] for _, _, c in results), default=0)
    return {"digest": digest, **totals}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_kb() -> int:
    """Peak resident memory of this process or of its largest worker."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def end_to_end(p: Passes, setup_s: float) -> dict:
    ms = p.call_ms()
    totals = summarize(p.ordered_results())
    return {
        "edges_per_s": (p.edges_per_s(), "edges/s"),
        "instance_ms_p50": (statistics.median(ms), "ms"),
        "instance_ms_p90": (percentile(ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "steps_per_edge": (totals["steps"] / sum(p.sizes), "count"),
        "peak_rss_mb": (peak_rss_kb() / 1024, "MB"),
    }


def report(args, runs: list[Passes], metrics: dict, extra_lines=()) -> dict:
    """Print the metrics for a reader, and return the JSON result."""
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    totals = summarize(runs[-1].ordered_results())
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}:"
        f" {attempted} calls, {len(runs[-1].sizes)} instances, passes "
        + "+".join(str(p.passes) for p in runs),
        f"failed_share {failed / attempted:.6g} ratio ({failed}/{attempted})",
        f"max_chain {totals['max_chain']} count",
        "golden digest={digest} steps={steps} content_steps={content_steps}"
        " fan_shifts={fan_shifts} path_shifts={path_shifts}"
        " max_chain={max_chain}".format(**totals),
        *extra_lines,
        *(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
        *(f"FAILED {msg}" for p in runs for msg in p.problems),
    ]
    print("\n".join(lines))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def worker(args, prog, import_s: float, workdir: str) -> None:
    """One worker of a timed run: set-ups and passes, written as JSON.

    The first set-up pays the fresh process's one-time costs, which vary
    from process to process by more than the set-up itself; ``setup_s``
    uses the second.
    """
    wl = make_workload(args.workload, prog, workdir)
    setup_times = []
    for _ in range(2):
        cases = None  # let the previous set-up's inputs go first
        gc.collect()
        t0 = perf_counter()
        cases = wl.setup(args.seed)
        setup_times.append(perf_counter() - t0)
    p = run_passes(wl, cases, args.seconds)
    with open(args.worker, "w") as f:
        json.dump({"import_s": import_s, "setup_s": setup_times, **p.to_json()}, f)


def timed_run(args, workdir: str, started: float) -> dict:
    """``WORKERS`` worker processes, one after the other, pooled.

    Each gets an equal share of ``--seconds`` for its passes.  Each worker's
    times are scaled by its own speed factor before they are pooled.  A
    worker that exits with an error or outlives the run's deadline ends the
    run without a result.
    """
    reference_ms = PROBE_REFERENCE_MS[args.workload]
    wall = scaled = None
    lines, wall_setups, scaled_setups = [], [], []
    for k in range(WORKERS):
        out = os.path.join(workdir, f"worker-{k}.json")
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / WORKERS), "--trace", "0",
             "--worker", out],
            stdout=subprocess.DEVNULL, check=True,
            timeout=DEADLINE_S - (perf_counter() - started),
        )
        with open(out) as f:
            part = json.load(f)
        if wall is None:
            wall, scaled = Passes(part["sizes"]), Passes(part["sizes"])
        alone = Passes(part["sizes"])
        alone.add(part)
        probe_ms = alone.probe_ms()
        factor = reference_ms / probe_ms if probe_ms else 1.0
        wall.add(part)
        scaled.add(part, factor)
        wall_setups.append(part["setup_s"][-1])
        scaled_setups.append(part["setup_s"][-1] * factor)
        lines.append(f"worker {k}: import {part['import_s']:.4f} s, set-ups "
                     + " ".join(f"{t:.4f}" for t in part["setup_s"])
                     + f" s, {alone.passes} passes, {alone.edges_per_s():.6g} edges/s,"
                     f" probe {probe_ms:.6g} ms (reference {reference_ms}): x {factor:.4f}")
    unscaled = end_to_end(wall, statistics.median(wall_setups))
    lines.append("wall " + ", ".join(f"{name} {value:.6g} {unit}"
                                     for name, (value, unit) in unscaled.items()
                                     if unit in ("edges/s", "ms", "s")))
    return report(args, [scaled], end_to_end(scaled, statistics.median(scaled_setups)),
                  lines)


def traced_run(args, prog, workdir: str) -> dict:
    wl = make_workload(args.workload, prog, workdir)
    cases = wl.setup(args.seed)
    plain = run_passes(wl, cases, args.seconds / 2)
    cases = None
    with Tracer() as tracer:
        with tracer.phase(SETUP):
            cases = wl.setup(args.seed)
        traced = run_passes(wl, cases, 0, tracer, max_passes=1)
    for i, result in traced.results.items():
        if plain.results.get(i) != result:
            traced.fail(i, f"{result[0]}: traced pass differs from untraced passes")
    metrics = tracer.layer_metrics()
    rate = traced.edges_per_s()
    metrics["trace.overhead"] = (plain.edges_per_s() / rate if rate else 0.0, "ratio")
    return report(args, [plain, traced], metrics)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)  # JSON output path
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind as on any error: the running worker is killed and
    # waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t0 = perf_counter()
    try:
        prog = load_program()
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if args.worker:  # inside the directory of the run that started it
        worker(args, prog, import_s, os.path.dirname(args.worker))
        return 0
    with scratch_dir(args.workload) as workdir:
        try:
            result = (traced_run(args, prog, workdir) if args.trace
                      else timed_run(args, workdir, t0))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"worker failed: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
