"""Per-layer spans and counts, collected by wrapping listcolor's public calls.

The program is not edited.  ``Tracer.install`` replaces each target
function or method with a wrapper that records a span (or only a count),
and ``Tracer.restore`` puts every original back.  A module-level function
is patched in every listcolor module that holds it under that name, since
``from .x import f`` copies the reference (engine looks up ``resolve_path``,
``koenig_path``, ``blank_coloring`` and ``check_bound`` in its own
namespace; cli does the same for ``color_graph`` and
``generate_from_bounds``).  Methods are patched on their class.

Spans are kept in memory, aggregated by (phase, parent span name, span
name): calls, total time and self time, where self time is the span's
duration minus the durations of its child spans.  Counted calls are
aggregated the same way without a clock, because they are too frequent to
time.  The phase is ``setup`` or ``run`` (the timed calls), as set with
``Tracer.phase``; outside a phase the wrappers only call through, so the
benchmark's own checks after a call are not counted.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from time import perf_counter_ns

ROOT = "<root>"
PACKAGE = "listcolor"
SETUP, RUN = "setup", "run"

# (span name, module, attribute); dotted attributes are methods on a class.
TIMED = (
    ("engine.color_graph", "engine", "color_graph"),
    ("engine.augment_once", "engine", "augment_once"),
    ("shannon.classify", "shannon", "classify_shannon"),
    ("shannon.fan", "shannon", "shannon_fan"),
    ("vizing.classify", "vizing", "classify_vizing"),
    ("vizing.fan", "vizing", "vizing_fan"),
    ("bipartite.koenig_path", "bipartite", "koenig_path"),
    ("chain.alternating_path", "chain", "alternating_path"),
    ("chain.max_shiftable_prefix", "chain", "max_shiftable_prefix"),
    ("chain.resolve_path", "chain", "resolve_path"),
    ("coloring.init", "coloring", "PartialColoring.__init__"),
    ("coloring.verify", "coloring", "PartialColoring.verify"),
    ("coloring.shift", "coloring", "PartialColoring.apply_chain_shift"),
    ("coloring.undo", "coloring", "PartialColoring.undo_chain_shift"),
    ("lists.check_bound", "lists", "check_bound"),
    ("lists.generate_from_bounds", "lists", "generate_from_bounds"),
    ("lists.assignment", "lists", "ListAssignment.__init__"),
    ("io.parse_instance", "io", "parse_instance"),
    ("io.write_coloring", "io", "write_coloring"),
    ("io.format_trace_record", "io", "format_trace_record"),
    ("cli.main", "cli", "main"),
)
COUNTED = (
    ("coloring.assign", "coloring", "PartialColoring.assign"),
    ("coloring.unassign", "coloring", "PartialColoring.unassign"),
    ("coloring.shift_violation", "coloring", "PartialColoring.shift_violation"),
    ("coloring.is_happy", "coloring", "PartialColoring.is_happy"),
    ("graph.degree", "graph", "Multigraph.degree"),
    ("graph.other_end", "graph", "Multigraph.other_end"),
    ("graph.neighbors", "graph", "Multigraph.neighbors"),
)

# Every branch name the engine can put in a trace record; explicit mode
# reports under the guarantee it runs with.
BRANCHES = (
    "shannon-happy-edge",
    "shannon-case1-happy-fan",
    "shannon-case2-content-fan",
    "shannon-case3-content-fan",
    "shannon-final-path-phi",
    "shannon-final-path-psi-setup",
    "shannon-final-path-psi",
    "vizing-happy-fan",
    "vizing-content-fan-full",
    "vizing-content-fan-prefix",
    "vizing-path-psi-full-setup",
    "vizing-path-psi-full",
    "vizing-path-psi-prefix-setup",
    "vizing-path-psi-prefix",
    "koenig-path",
)

# Layers whose spans are timed, for the self-time shares.
TIMED_LAYERS = ("engine", "shannon", "vizing", "bipartite", "chain",
                "coloring", "lists", "io", "cli")


def _modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Installs wrappers, aggregates spans and counts, restores originals."""

    def __init__(self):
        # (phase, parent, name) -> [calls, total ns, self ns]
        self.spans: dict[tuple[str, str, str], list[int]] = {}
        self.counts: Counter = Counter()  # (phase, parent, name) -> count
        self.chain_lengths: Counter = Counter()  # shifted-chain length -> count
        self._phase = None
        self._stack = [[ROOT, 0]]
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record the calls made inside the block under ``name``."""
        self._phase = name
        try:
            yield
        finally:
            self._phase = None

    def record(self, rec) -> None:
        """Trace sink: count the record's branch and its shifted chain."""
        if self._phase is None:
            return
        branch = rec.branch if rec.branch in BRANCHES else "other"
        self.counts[(self._phase, ROOT, f"branch.{branch}")] += 1
        if rec.kind != "happy-edge":  # a happy edge shifts no chain
            self.chain_lengths[len(rec.chain)] += 1

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "engine.color_graph": (None, self._after_color_graph),
            "chain.alternating_path": (None, self._after_alternating_path),
            "io.write_coloring": (None, self._after_write),
            "io.format_trace_record": (self._on_trace_record, self._after_trace_line),
        }
        try:
            for name, module, attr in TIMED:
                on_call, on_result = hooks.get(name, (None, None))
                self._patch(module, attr,
                            lambda fn, name=name, c=on_call, r=on_result:
                            self._timed(name, fn, c, r))
            for name, module, attr in COUNTED:
                self._patch(module, attr,
                            lambda fn, name=name: self._counted(name, fn))
        except BaseException:  # a missing target: leave nothing half-patched
            self.restore()
            raise

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = vars(cls)[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for holder in _modules():
            if vars(holder).get(attr) is original:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn, on_call, on_result):
        stack, spans, clock = self._stack, self.spans, perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self._phase
            if phase is None:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (phase, parent[0], name)
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                parent[1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._phase is not None:
                counts[(self._phase, stack[-1][0], name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_color_graph(self, result) -> None:
        phi, _stats = result
        self.counts[(self._phase, ROOT, "coloring.ops")] += phi.ops

    def _after_alternating_path(self, path) -> None:
        self.counts[(self._phase, ROOT, "chain.path_edges_walked")] += len(path.edges)

    def _after_write(self, text) -> None:
        self.counts[(self._phase, ROOT, "io.bytes_written")] += len(text)

    def _on_trace_record(self, args) -> None:
        self.record(args[0])  # the command line formats every record it writes

    def _after_trace_line(self, line) -> None:
        self.counts[(self._phase, ROOT, "io.bytes_written")] += len(line) + 1  # newline

    # -- aggregates -------------------------------------------------------------

    # Each sums both phases: on ``scale`` and ``dense`` the set-up's parse
    # and list building are the only ``io`` and ``lists`` work there is.

    def calls(self, name, parent=None) -> int:
        return sum(v[0] for (_, p, n), v in self.spans.items()
                   if n == name and parent in (None, p))

    def total_s(self, name, parent=None) -> float:
        return sum(v[1] for (_, p, n), v in self.spans.items()
                   if n == name and parent in (None, p)) / 1e9

    def self_s(self, name) -> float:
        return sum(v[2] for (_, _, n), v in self.spans.items() if n == name) / 1e9

    def count(self, name, parent=None) -> int:
        return sum(v for (_, p, n), v in self.counts.items()
                   if n == name and parent in (None, p))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit).

        ``share.<layer>`` is the layer's self time over all in-program time
        of the timed calls alone, without the set-up.
        """
        s, c, t, k = self.self_s, self.calls, self.total_s, self.count
        shifts, undos = c("coloring.shift"), c("coloring.undo")
        resolves = c("chain.resolve_path")
        lengths = sorted(self.chain_lengths.elements()) or [0]
        out: dict[str, tuple[float, str]] = {
            "engine.color_graph_s": (t("engine.color_graph"), "s"),
            "engine.self_s": (s("engine.color_graph"), "s"),
            "engine.augment_calls": (c("engine.augment_once"), "count"),
            "engine.augment_self_s": (s("engine.augment_once"), "s"),
        }
        for b in BRANCHES + ("other",):
            out[f"branch.{b}"] = (k(f"branch.{b}"), "count")
        for mode in ("shannon", "vizing"):
            out[f"{mode}.classify_calls"] = (c(f"{mode}.classify"), "count")
            out[f"{mode}.classify_s"] = (t(f"{mode}.classify"), "s")
            out[f"{mode}.fan_s"] = (t(f"{mode}.fan"), "s")
        out["vizing.trial_shift_s"] = (
            t("coloring.shift", "vizing.classify") + t("coloring.undo", "vizing.classify"),
            "s",
        )
        out.update({
            "bipartite.koenig_path_calls": (c("bipartite.koenig_path"), "count"),
            "bipartite.koenig_path_s": (t("bipartite.koenig_path"), "s"),
            "chain.alternating_path_calls": (c("chain.alternating_path"), "count"),
            "chain.alternating_path_s": (t("chain.alternating_path"), "s"),
            "chain.path_edges_walked": (k("chain.path_edges_walked"), "count"),
            "chain.resolve_calls": (resolves, "count"),
            "chain.resolve_s": (t("chain.resolve_path"), "s"),
            "chain.prefix_s": (t("chain.max_shiftable_prefix"), "s"),
            "chain.prefix_checks_per_resolve": (
                k("coloring.shift_violation", "chain.max_shiftable_prefix")
                / resolves if resolves else 0.0,
                "count",
            ),
            "chain.len_p50": (lengths[len(lengths) // 2], "count"),
            "chain.len_p99": (lengths[min(len(lengths) - 1, len(lengths) * 99 // 100)],
                              "count"),
            "chain.len_max": (lengths[-1], "count"),
            "coloring.init_s": (t("coloring.init"), "s"),
            "coloring.verify_s": (t("coloring.verify"), "s"),
            "coloring.assign_calls": (k("coloring.assign"), "count"),
            "coloring.unassign_calls": (k("coloring.unassign"), "count"),
            "coloring.shift_calls": (shifts, "count"),
            "coloring.shift_s": (t("coloring.shift"), "s"),
            "coloring.undo_calls": (undos, "count"),
            "coloring.shift_commit_ratio": (
                (shifts - undos) / shifts if shifts else 0.0, "ratio"
            ),
            "coloring.violation_checks": (k("coloring.shift_violation"), "count"),
            "coloring.is_happy_calls": (k("coloring.is_happy"), "count"),
            "coloring.ops": (k("coloring.ops"), "count"),
            "lists.check_bound_s": (t("lists.check_bound"), "s"),
            "lists.generate_s": (t("lists.generate_from_bounds"), "s"),
            "lists.assignment_s": (t("lists.assignment"), "s"),
            "graph.degree_calls": (k("graph.degree"), "count"),
            "graph.other_end_calls": (k("graph.other_end"), "count"),
            "graph.neighbors_calls": (k("graph.neighbors"), "count"),
            "io.parse_instance_s": (t("io.parse_instance"), "s"),
            "io.write_coloring_s": (t("io.write_coloring"), "s"),
            "io.format_trace_s": (t("io.format_trace_record"), "s"),
            "io.bytes_written": (k("io.bytes_written"), "B"),
            "cli.main_s": (t("cli.main"), "s"),
            "cli.self_s": (s("cli.main"), "s"),
        })
        timed = [(n, v[2]) for (ph, _, n), v in self.spans.items() if ph == RUN]
        in_program = sum(t for _, t in timed)
        for layer in TIMED_LAYERS:
            own = sum(t for n, t in timed if n.startswith(layer + "."))
            out[f"share.{layer}"] = (own / in_program if in_program else 0.0, "ratio")
        return out
