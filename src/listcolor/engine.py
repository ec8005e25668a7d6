"""Top-level coloring procedure: repair each edge in id order until it is colored.

``color_graph`` takes the edges 0..m-1 in turn and repairs each one until
it is colored.  A step's chain uses only colored edges besides its blank
start, so a content step blanks one edge with a smaller id, and that edge
is repaired next: the edge under repair is always the smallest blank id.

Each augmentation ends in exactly one of two ways: a happy outcome colors
one more edge, a content outcome keeps the blank count and strictly
lowers the potential.  Both strictly decrease the potential in the
lexicographic order, which bounds the number of steps and is asserted on
every single one; the bound derived from the potential's value range is
enforced as a hard budget, so nontermination is impossible and a budget
trip means a bug, not a hard instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import shannon, vizing
from .bipartite import koenig_path
from .chain import Step, resolve_path
from .coloring import PartialColoring, Potential
from .errors import (
    InternalAssertionError,
    LemmaViolationError,
    StepBudgetExceededError,
)
from .graph import Multigraph
from .lists import BOUND_MODES, MODES, ListAssignment, check_bound


@dataclass
class RunStats:
    happy_steps: int = 0
    content_steps: int = 0
    fan_shifts: int = 0
    path_shifts: int = 0
    max_chain_length: int = 0

    @property
    def steps(self) -> int:
        return self.happy_steps + self.content_steps


class TraceRecord(NamedTuple):
    """One shift event; the engine builds records only when a sink is set."""

    step: int
    kind: str  # happy-edge | fan-shift | path-shift-happy | path-shift-content
    branch: str
    chain: tuple[int, ...]
    phi_before: Potential
    phi_after: Potential


TraceSink = Optional[Callable[[TraceRecord], None]]


def _emit(trace: TraceSink, step, kind, mode, branch, chain, before, phi):
    if trace is not None:
        trace(TraceRecord(step, kind, f"{mode}-{branch}", chain, Potential(*before),
                          phi.potential()))


def augment_once(
    phi: PartialColoring,
    e: int,
    mode: str,
    stats: RunStats,
    trace: TraceSink = None,
) -> Optional[int]:
    """One repair step on blank edge e of any partial coloring.

    Returns None after a happy step and, after a content step, the edge
    it left blank: the end of the last chain it committed.  Postcondition,
    asserted: either one more edge is colored or the blank count is
    unchanged and that end edge is blank.  In both cases the potential
    strictly drops.
    """
    if mode not in BOUND_MODES:
        raise ValueError(f"augment mode must name a guarantee, got {mode!r}")
    step = stats.steps
    before = (phi.a_total, phi.d_total)  # a Potential only for a message or a record
    blanks = phi.blanks

    if mode == "koenig":
        out = Step("path", path=koenig_path(phi, e))
    elif mode == "shannon":
        out = shannon.classify_shannon(phi, e)
    else:
        u, v = phi.g.endpoints[e]
        out = vizing.classify_vizing(phi, e, min(u, v))
    left = _apply_outcome(phi, e, out, mode, stats, trace, step, before)

    after = (phi.a_total, phi.d_total)
    if not after < before:
        raise LemmaViolationError(
            f"potential did not drop: {Potential(*before)} -> {Potential(*after)}"
        )
    if left is None:
        if phi.blanks != blanks - 1:
            raise LemmaViolationError("happy step did not color exactly one edge")
        stats.happy_steps += 1
    elif phi.blanks != blanks or phi.color[left] is not None:
        raise LemmaViolationError(
            f"content step changed the blank count or left its end edge {left} colored"
        )
    else:
        stats.content_steps += 1
    return left


def _apply_outcome(phi, e, out, mode, stats, trace, step, before) -> Optional[int]:
    """Commit a step of any mode: its checked fan shift, then a happy color
    for the end edge or the resolution of its path (koenig's only part).
    Returns None if happy, else the end edge of the last committed chain."""
    branch, shift, path, happy = out
    chain = (e,) if shift is None else shift.edges
    if shift is not None:
        phi.apply_chain_shift(shift)
        stats.fan_shifts += 1
    if happy:
        c = phi.is_happy(chain[-1])
        if c is None:
            raise LemmaViolationError(f"edge {chain[-1]} not recolorable after its shift")
        phi.assign(chain[-1], c)
    if shift is not None or happy:
        stats.max_chain_length = max(stats.max_chain_length, len(chain))
        if trace is not None:
            kind = "happy-edge" if shift is None else "fan-shift"
            label = branch if path is None else f"{branch}-setup"
            _emit(trace, step, kind, mode, label, chain, before, phi)
    if path is None:
        return None if happy else chain[-1]
    mid = None if trace is None else phi.potential()
    done = resolve_path(phi, path)  # the whole path if happy, else a prefix
    stats.path_shifts += 1
    end = done.edges[-1]
    stats.max_chain_length = max(stats.max_chain_length, len(done.edges))
    happy = phi.color[end] is not None
    kind = "path-shift-happy" if happy else "path-shift-content"
    _emit(trace, step, kind, mode, branch, done.edges, mid, phi)
    return None if happy else end


def step_budget(g: Multigraph, lists: ListAssignment) -> tuple[int, int]:
    """(content budget from the potential's value range, happy budget m)."""
    n, delta = g.n, g.max_degree()
    return n * lists.max_common() + (delta * delta * n * n) // 2, g.m


def color_graph(
    g: Multigraph,
    lists: ListAssignment,
    mode: str,
    assume_bound: Optional[str] = None,
    trace: TraceSink = None,
) -> tuple[PartialColoring, RunStats]:
    """Color every edge from its list, or raise BoundViolationError upfront.

    ``mode`` selects the guarantee; ``explicit`` requires ``assume_bound``
    naming which of the three guarantees the supplied lists satisfy (it is
    verified, not trusted), and no other mode takes one.  Returns the total
    coloring and run statistics.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "explicit":
        if assume_bound not in BOUND_MODES:
            raise ValueError("explicit mode requires assume_bound")
        effective = assume_bound
    elif assume_bound is not None:
        raise ValueError(f"assume_bound applies only to explicit mode, not {mode!r}")
    else:
        effective = mode
    check_bound(g, lists, effective)

    phi = PartialColoring(g, lists)
    stats = RunStats()
    content_budget, happy_budget = step_budget(g, lists)
    for e in range(g.m):
        while e is not None:
            if stats.content_steps > content_budget or stats.happy_steps > happy_budget:
                raise StepBudgetExceededError(
                    f"steps {stats.steps} exceed budget {happy_budget} + {content_budget}"
                )
            e = augment_once(phi, e, effective, stats, trace)
    findings = phi.verify()
    if findings:
        raise InternalAssertionError(f"final verification failed: {findings[0]}")
    if stats.happy_steps != g.m:
        raise InternalAssertionError("happy step count does not match edge count")
    return phi, stats
