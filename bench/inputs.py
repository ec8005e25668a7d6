"""Seeded benchmark inputs, built without importing listcolor.

The program under test only sees the instance files written from these
objects, so a change to the program's own generator or list helpers cannot
move the benchmark's inputs.  The same (workload, seed) pair always yields
the same instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

BOUND_MODES = ("shannon", "vizing", "koenig")
# Adversarial lists: each vertex's target set starts at a random color in
# 1..LIST_SPREAD and is drawn from a window LIST_SPREAD colors wider than
# its bound; each edge list gets up to LIST_EXTRA random colors on top.
LIST_SPREAD = 4
LIST_EXTRA = 3


@dataclass(frozen=True)
class Instance:
    name: str
    mode: str  # shannon | vizing | koenig | explicit
    assume: Optional[str]  # guarantee the explicit lists satisfy
    n: int
    edges: tuple[tuple[int, int], ...]
    lists: Optional[tuple[frozenset, ...]]  # None for bound-mode instances

    @property
    def bound(self) -> str:
        return self.assume or self.mode

    @property
    def m(self) -> int:
        return len(self.edges)


def random_multigraph(rng, n, max_degree, max_mult, bipartite, target):
    """Edge list with degree <= max_degree and bundle size <= max_mult.

    Endpoints are drawn uniformly; a draw that would break a cap (or, when
    ``bipartite``, join two vertices of equal parity) is rejected, and
    sampling stops after a fixed number of attempts.
    """
    deg = [0] * n
    mult: dict[tuple[int, int], int] = {}
    edges = []
    for _ in range(50 * max(target, 1) + 100):
        if len(edges) >= target:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (bipartite and u % 2 == v % 2):
            continue
        if deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        key = (min(u, v), max(u, v))
        if mult.get(key, 0) >= max_mult:
            continue
        mult[key] = mult.get(key, 0) + 1
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return tuple(edges)


def local_bounds(n, edges, bound) -> list[int]:
    """Required common-color count per vertex under the named guarantee."""
    deg = [0] * n
    mult: dict[tuple[int, int], int] = {}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + 1
    mu = [0] * n
    for (u, v), k in mult.items():
        mu[u] = max(mu[u], k)
        mu[v] = max(mu[v], k)
    if bound == "shannon":
        return [d + d // 2 for d in deg]
    if bound == "vizing":
        return [d + k for d, k in zip(deg, mu)]
    if bound == "koenig":
        return deg
    raise ValueError(f"unknown guarantee {bound!r}")


def adversarial_lists(rng, n, edges, bound):
    """Lists whose common sets just meet the bound, with shuffled colors.

    Each vertex gets a random target set of exactly its bound, drawn from a
    window that starts at a random low color; each edge's list is the union
    of its endpoints' targets plus a few random extra colors, so every
    common set contains its vertex's target set.
    """
    targets = []
    for b in local_bounds(n, edges, bound):
        lo = rng.randint(1, LIST_SPREAD)
        pool = list(range(lo, lo + b + LIST_SPREAD))
        rng.shuffle(pool)
        targets.append(frozenset(pool[:b]))
    lists = []
    for u, v in edges:
        s = set(targets[u] | targets[v])
        for _ in range(rng.randint(0, LIST_EXTRA)):
            s.add(rng.randint(1, 40))
        lists.append(frozenset(s))
    return tuple(lists)


def make_instance(rng, name, mode, n, max_degree, max_mult, target, assume=None):
    bound = assume or mode
    edges = random_multigraph(
        rng, n, max_degree, max_mult, bound == "koenig", target
    )
    lists = adversarial_lists(rng, n, edges, bound) if mode == "explicit" else None
    return Instance(name, mode, assume, n, edges, lists)


def instance_text(inst: Instance) -> str:
    """The instance in the program's documented DIMACS-style format."""
    out = [f"p edge {inst.n} {inst.m}"]
    for e, (u, v) in enumerate(inst.edges):
        if inst.lists is None:
            out.append(f"e {u} {v}")
        else:
            out.append(f"e {u} {v} " + " ".join(map(str, sorted(inst.lists[e]))))
    return "\n".join(out) + "\n"


# -- workloads ------------------------------------------------------------------
#
# ``explicit`` carries adversarial lists for the vizing guarantee on the
# large workloads, and for each guarantee in turn on ``files``.

LARGE_MODES = (
    ("shannon", None),
    ("vizing", None),
    ("koenig", None),
    ("explicit", "vizing"),
)
# (mode, assume, instances) on ``dense``.  There the shannon bound lists are
# so long that every step is a happy edge, which adds only the blank-edge
# pick that ``scale`` measures, so one shannon instance is enough to show it.
DENSE_KINDS = (
    ("shannon", None, 1),
    ("vizing", None, 4),
    ("koenig", None, 4),
    ("explicit", "vizing", 4),
)
SCALE_N, SCALE_DELTA = 2000, 16  # mu = 1, m = n * delta / 3 = 10,666
DENSE_N, DENSE_DELTA = 150, 64  # mu = delta / 4, m = 3,200 per instance
FILES_COUNT = 600


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _label(workload, mode, assume, i):
    return f"{workload}-{mode}{'-' + assume if assume else ''}-{i}"


def scale_instances(seed: int):
    """One large sparse instance per mode."""
    rng = _rng("scale", seed)
    return [
        make_instance(rng, _label("scale", mode, assume, 0), mode, SCALE_N,
                      SCALE_DELTA, 1, SCALE_N * SCALE_DELTA // 3, assume)
        for mode, assume in LARGE_MODES
    ]


def dense_instances(seed: int):
    """Few vertices, high degree, bundles up to delta / 4 parallel edges."""
    rng = _rng("dense", seed)
    return [
        make_instance(rng, _label("dense", mode, assume, i), mode, DENSE_N,
                      DENSE_DELTA, DENSE_DELTA // 4, DENSE_N * DENSE_DELTA // 3,
                      assume)
        for mode, assume, count in DENSE_KINDS
        for i in range(count)
    ]


def files_instances(seed: int):
    """Small instances of the acceptance-batch sizes, half with stored lists.

    Sizes: n in 4..40, delta in 2..12, mu in 1..4, m drawn up to n * delta / 3.
    The sizes come from a fixed stream, the same for every seed, and the
    seed draws the graphs and lists: with random sizes, the total edge
    count of 600 instances moves by several percent from seed to seed and
    the per-call metrics with it.  Even-numbered instances are bound-mode,
    odd-numbered ones explicit.
    """
    sizes = random.Random("files-sizes")
    rng = _rng("files", seed)
    bound_kinds = [(mode, None) for mode in BOUND_MODES]
    explicit_kinds = [("explicit", bound) for bound in BOUND_MODES]
    out = []
    for i in range(FILES_COUNT):
        kinds = bound_kinds if i % 2 == 0 else explicit_kinds
        mode, assume = kinds[(i // 2) % len(kinds)]
        n = sizes.randint(4, 40)
        dmax = sizes.randint(2, 12)
        mmax = sizes.randint(1, 4)
        target = sizes.randint(1, max(1, n * dmax // 3))
        out.append(make_instance(rng, f"files-{i:04d}", mode, n, dmax, mmax,
                                 target, assume))
    return out


INSTANCES = {
    "scale": scale_instances,
    "dense": dense_instances,
    "files": files_instances,
}
