"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict line.
The random-batch criteria share a session-scoped corpus so the 1000-run
protocols execute once; every expected value here is recomputed from
definitions (scratch scans, the exhaustive oracle, brute-force checks),
never from the engine's own caches.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from time import perf_counter

import pytest

import listcolor as lc
from listcolor.chain import alternating_path

from conftest import (
    StepLog,
    adversarial_lists,
    blank_edges,
    check_certificate,
    oracle_bound_instances,
    oracle_cross_check,
    oracle_list_instances,
    random_partial,
    recompute_available,
    reference_bound,
    reference_path,
    setup_partial,
)

SEED_SALT = {"shannon": 0, "vizing": 1_000_000, "koenig": 2_000_000, "adv": 3_000_000}


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def sample_params(rng):
    n = rng.randint(4, 40)
    dmax = rng.randint(2, 12)
    mmax = rng.randint(1, 4)
    edges = rng.randint(1, max(1, n * dmax // 3))
    return n, dmax, mmax, edges


@dataclass
class BatchSummary:
    runs: int = 0
    failures: list = field(default_factory=list)
    verify_failures: int = 0
    color_bound_violations: int = 0
    potential_violations: int = 0
    budget_violations: int = 0
    fan_steps: int = 0
    elapsed: float = 0.0


def run_batch(mode: str, count: int, adversarial: bool = False) -> BatchSummary:
    s = BatchSummary()
    start = perf_counter()
    salt = SEED_SALT["adv" if adversarial else mode]
    for i in range(count):
        seed = salt + i
        rng = random.Random(seed)
        n, dmax, mmax, edges = sample_params(rng)
        g = lc.generate_random(
            n, dmax, mmax, bipartite=(mode == "koenig"), seed=seed, edges=edges
        )
        if adversarial:
            L = adversarial_lists(g, mode, rng)
            run_mode, assume = "explicit", mode
        else:
            L = lc.generate_from_bounds(g, mode)
            run_mode, assume = mode, None
        records = []
        try:
            phi, stats = lc.color_graph(g, L, run_mode, assume_bound=assume,
                                        trace=records.append)
        except Exception as exc:  # any failure counts against 100% success
            s.failures.append((seed, repr(exc)))
            continue
        s.runs += 1
        if phi.blanks or phi.verify() or lc.check_edge_colors(g, L, phi.color):
            s.verify_failures += 1
        if not adversarial:
            bounds = [reference_bound(g, x, mode) for x in range(g.n)]
            for e, (u, v) in enumerate(g.endpoints):
                if phi.color[e] > max(bounds[u], bounds[v]):
                    s.color_bound_violations += 1
        try:
            check_certificate(g, L, records, stats, phi.color)
        except AssertionError:
            s.potential_violations += 1
        if stats.steps > lc.step_budget(lc.PartialColoring(g, L)):
            s.budget_violations += 1
        s.fan_steps += stats.fan_shifts
    s.elapsed = perf_counter() - start
    return s


@pytest.fixture(scope="session")
def shannon_batch():
    return run_batch("shannon", 1000)


@pytest.fixture(scope="session")
def vizing_batch():
    return run_batch("vizing", 1000)


@pytest.fixture(scope="session")
def vizing_adversarial_batch():
    return run_batch("vizing", 1000, adversarial=True)


@pytest.fixture(scope="session")
def koenig_batch():
    return run_batch("koenig", 1000)


def test_criterion_1_shannon_local(shannon_batch):
    s = shannon_batch
    ok = not s.failures and s.runs == 1000 and s.verify_failures == 0
    ok = ok and s.elapsed < 30.0
    verdict(
        1, ok,
        f"shannon: {s.runs}/1000 runs colored and verified"
        f" in {s.elapsed:.1f}s (failures={len(s.failures)})",
    )


def test_criterion_2_vizing_local(vizing_batch, vizing_adversarial_batch):
    a, b = vizing_batch, vizing_adversarial_batch
    ok = (
        not a.failures and a.runs == 1000 and a.verify_failures == 0
        and not b.failures and b.runs == 1000 and b.verify_failures == 0
    )
    verdict(
        2, ok,
        f"vizing: {a.runs}/1000 bound runs and {b.runs}/1000 adversarial"
        f" explicit runs colored and verified"
        f" ({a.elapsed:.1f}s + {b.elapsed:.1f}s)",
    )


def test_criterion_3_koenig_local(koenig_batch):
    s = koenig_batch
    ok = (
        not s.failures and s.runs == 1000 and s.verify_failures == 0
        and s.fan_steps == 0
    )
    verdict(
        3, ok,
        f"koenig: {s.runs}/1000 bipartite runs colored, fans invoked"
        f" {s.fan_steps} times ({s.elapsed:.1f}s)",
    )


def test_criterion_4_corollary_color_ranges(shannon_batch, vizing_batch, koenig_batch):
    total = sum(
        s.color_bound_violations for s in (shannon_batch, vizing_batch, koenig_batch)
    )
    verdict(
        4, total == 0,
        f"bound-mode colors within max endpoint bound: {total} violations"
        f" across {shannon_batch.runs + vizing_batch.runs + koenig_batch.runs} runs",
    )


def test_criterion_5_potential_certificate(
    shannon_batch, vizing_batch, vizing_adversarial_batch, koenig_batch
):
    batches = (shannon_batch, vizing_batch, vizing_adversarial_batch, koenig_batch)
    pot = sum(s.potential_violations for s in batches)
    budget = sum(s.budget_violations for s in batches)
    ok = pot == 0 and budget == 0
    verdict(
        5, ok,
        f"trace certificate: potential strictly decreasing from the empty"
        f" coloring's to the final one, counters matching the records"
        f" ({pot} violations), step budget respected"
        f" ({budget} violations)",
    )


def bound_instances():
    """(g, L, mode, assume) for instances that meet the shannon or vizing
    bound: random small graphs under bound lists or, one in three,
    adversarial lists in explicit mode; then ``oracle_bound_instances``."""
    for i in range(500):
        seed = 5_000_000 + i
        rng = random.Random(seed)
        g = lc.generate_random(
            rng.randint(2, 7), rng.randint(1, 5), rng.randint(1, 3),
            seed=seed, edges=rng.randint(1, 9),
        )
        mode = ("shannon", "vizing")[i % 2]
        if i % 3 == 0:
            yield g, adversarial_lists(g, mode, rng), "explicit", mode
        else:
            yield g, lc.generate_from_bounds(g, mode), mode, None
    yield from oracle_bound_instances()


def random_list_instances():
    """(g, L): ``oracle_list_instances`` over two seed ranges."""
    yield from oracle_list_instances(random.Random(77), range(6_000_000, 6_000_200))
    yield from oracle_list_instances()


def test_criterion_6_oracle_equivalence():
    agree, feasible, absent = oracle_cross_check(bound_instances(), random_list_instances())
    verdict(
        6, agree == feasible == 620 and absent > 5,
        f"oracle and engine agree on {agree}/{feasible} feasible instances;"
        f" {absent} infeasible instances all fail the bound check",
    )


FIG_LISTS = frozenset(range(1, 7))


def test_criterion_8_shift_and_path_properties():
    # exact reproduction of the seven-edge shift figure
    specs = [
        (0, 1, None, FIG_LISTS),
        (0, 2, 1, FIG_LISTS),
        (0, 3, 2, FIG_LISTS),
        (3, 4, 3, FIG_LISTS),
        (5, 4, 4, FIG_LISTS),
        (5, 6, 5, FIG_LISTS),
        (5, 7, 6, FIG_LISTS),
    ]
    g, L, phi = setup_partial(8, specs)
    phi.apply_chain_shift(phi.check_shift(tuple(range(7))))
    fig_ok = phi.color == [1, 2, 3, 4, 5, 6, None] and not phi.verify()

    # every walk is the path the definition gives
    probes = 0
    violations = 0
    seed = 0
    while probes < 10_000:
        seed += 1
        rng = random.Random(8_000_000 + seed)
        g = lc.generate_random(
            rng.randint(4, 14), rng.randint(2, 6), rng.randint(1, 3),
            seed=seed, edges=rng.randint(3, 22),
        )
        L = lc.generate_from_bounds(g, "shannon")
        phi = random_partial(g, L, rng, fill=0.75)
        avail = recompute_available(g, L, phi.color)
        for e in blank_edges(phi):
            u, v = g.endpoints[e]
            pairs = [
                (a, b)
                for a in sorted(avail[u])[:3]
                for b in sorted(avail[v])[:3]
                if a != b
            ]
            for alpha, beta in pairs[:10_000 - probes]:
                probes += 1
                path = alternating_path(phi, e, alpha, beta)
                violations += path != reference_path(g, L, phi.color, e, alpha, beta)
    verdict(
        8, fig_ok and violations == 0,
        f"shift figure reproduced ({fig_ok}); {probes} path probes,"
        f" {violations} differing from the walk by definition",
    )


def test_criterion_9_complexity_smoke(monkeypatch):
    log = StepLog(monkeypatch)
    slopes = {}
    details = []
    for mode in ("vizing", "shannon"):
        points = []
        for delta in (4, 8, 16, 32):
            vals = []
            for seed in range(5):
                g = lc.generate_random(
                    24, delta, max(1, delta // 4), seed=seed, edges=24 * delta // 3
                )
                L = lc.generate_from_bounds(g, mode)
                log.steps = []
                lc.color_graph(g, L, mode)
                # a step's work is bounded by c * delta * (max common + n);
                # divide the non-delta factors out and fit the remaining power
                vals.append(max(s.work for s in log.steps) / (max(map(len, L.common)) + g.n))
            points.append((delta, sum(vals) / len(vals)))
        xs = [math.log(d) for d, _ in points]
        ys = [math.log(v) for _, v in points]
        xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum(
            (x - xm) ** 2 for x in xs
        )
        slopes[mode] = slope
        details.append(f"{mode} exponent {slope:.2f}")
    ok = all(s <= 1.3 for s in slopes.values())
    verdict(9, ok, f"normalized per-step work vs max degree: {', '.join(details)}")
