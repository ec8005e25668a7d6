"""Top-level coloring procedure: repair each edge in id order until it is colored.

``color_graph`` takes the edges 0..m-1 in turn and repairs each one until
it is colored.  A step's chain uses only colored edges besides its blank
start, so a content step blanks one edge with a smaller id, and that edge
is repaired next: the edge under repair is always the smallest blank id.

``augment_once`` carries out one step: the classifier of the mode decides
it, and only ``augment_once`` commits it.  A step is either happy, one
more edge colored, or content, the same blank count and a strictly
smaller potential.  Both strictly decrease the potential in the
lexicographic order, which is asserted on every single one and bounds
the number of steps by B = (2 Delta - 1) a0 + d0 (see ``step_budget``).
B is enforced as a hard budget, so nontermination is impossible and a
budget trip means a bug, not a hard instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import shannon, vizing
from .bipartite import koenig_path
from .chain import resolve_path
from .coloring import PartialColoring, check_edge
from .errors import InternalAssertionError, PreconditionViolatedError
from .graph import Multigraph
from .lists import BOUND_MODES, MODES, ListAssignment, check_bound


@dataclass(slots=True)
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
    phi_before: tuple[int, int]  # the potential (a, d)
    phi_after: tuple[int, int]


TraceSink = Optional[Callable[[TraceRecord], None]]


def augment_once(
    phi: PartialColoring,
    e: int,
    mode: str,
    stats: RunStats,
    trace: TraceSink = None,
) -> Optional[int]:
    """One repair step on blank edge e of any partial coloring.

    The only reader of a classifier's verdict ``(branch, shift, path,
    happy)``: commit its checked fan shift, if any and if it has two or
    more edges (a one-edge fan moves no color, though it still counts
    as a fan shift); then color the shifted fan's end edge (the blank
    edge itself without a shift) if the step is happy, or else resolve
    its path, koenig's only part.  A fan shift alone is a content step.
    Returns None after a happy step, else the edge left blank: the end
    edge of the last committed chain.
    Postcondition, asserted here for the whole step: either one more edge
    is colored, or the blank count is unchanged and that end edge is
    blank.  Either way the potential strictly drops.
    Refuses with PreconditionViolatedError, before any change, an edge id
    that is not an int, is out of range or is colored; nothing below does.
    """
    if mode not in BOUND_MODES:
        raise ValueError(f"augment mode must name a guarantee, got {mode!r}")
    g = phi.g
    check_edge(e, g.m)
    if phi.color[e] is not None:
        raise PreconditionViolatedError(f"edge {e} is not blank")
    step = stats.happy_steps + stats.content_steps
    a0, d0 = phi.a_total, phi.d_total
    blanks = phi.blanks

    if mode == "koenig":
        branch, shift, path, happy = "path", None, koenig_path(phi, e), False
    elif mode == "shannon":
        branch, shift, path, happy = shannon.classify_shannon(phi, e)
    else:
        u, v = g.endpoints[e]
        branch, shift, path, happy = vizing.classify_vizing(phi, e, u if u < v else v)

    chain = fan = (e,) if shift is None else shift.edges
    if shift is not None:
        if len(fan) > 1:
            phi.apply_chain_shift(shift)
        stats.fan_shifts += 1
    if happy:
        c = phi.is_happy(fan[-1])
        if c is None:
            raise InternalAssertionError(f"edge {fan[-1]} not recolorable after its shift")
        phi.assign(fan[-1], c)
    if trace is not None and (shift is not None or happy):
        kind = "happy-edge" if shift is None else "fan-shift"
        label = f"{mode}-{branch}" if path is None else f"{mode}-{branch}-setup"
        trace(TraceRecord(step, kind, label, fan, (a0, d0), phi.potential()))
    if path is not None:
        mid = None if trace is None else phi.potential()
        chain = resolve_path(phi, path)  # the whole path if happy, else a prefix
        happy = phi.color[chain[-1]] is not None
        stats.path_shifts += 1
        if trace is not None:
            kind = "path-shift-happy" if happy else "path-shift-content"
            trace(TraceRecord(step, kind, f"{mode}-{branch}", chain, mid,
                              phi.potential()))

    # a path, when there is one, is never shorter than the uncommitted (e,)
    k = len(chain) if len(chain) > len(fan) else len(fan)
    if k > stats.max_chain_length:
        stats.max_chain_length = k
    a1, d1 = phi.a_total, phi.d_total
    if not (a1 < a0 or (a1 == a0 and d1 < d0)):
        raise InternalAssertionError(
            f"potential did not drop: {(a0, d0)} -> {(a1, d1)}")
    if phi.blanks != blanks - happy:
        raise InternalAssertionError(f"blank count went from {blanks} to {phi.blanks}")
    if happy:
        stats.happy_steps += 1
        return None
    stats.content_steps += 1
    return chain[-1]


def step_budget(phi: PartialColoring) -> int:
    """B = (2 Delta - 1) a + d: no run from phi's coloring takes more steps.

    (a, d) = ``phi.potential()``, and a, d >= 0; from the blank coloring
    that is (sum |common(x)|, sum deg(x)^2).  Every step lowers (a, d)
    lexicographically, so a never rises and at most a steps lower it.  A
    step colors its blank edge e and leaves at most one edge f blank (fan
    and path shifts telescope), so with w = deg(u) + deg(v) d rises by at
    most w(f) - w(e) <= 2 Delta - 2, and only when a drops.  Every other
    step lowers d by at least 1: there are at most d + (2 Delta - 2) a.
    """
    a, d = phi.potential()
    return (2 * phi.g.max_degree() - 1) * a + d


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
    budget = step_budget(phi)
    for e in range(g.m):
        while e is not None:
            if stats.happy_steps + stats.content_steps >= budget:
                raise InternalAssertionError(f"step {budget + 1} exceeds budget {budget}")
            e = augment_once(phi, e, effective, stats, trace)
    findings = phi.verify()
    if findings:
        kind, detail = findings[0]
        raise InternalAssertionError(f"final verification failed: {kind}: {detail}")
    if stats.happy_steps != g.m:
        raise InternalAssertionError("happy step count does not match edge count")
    return phi, stats
