"""Tests of the benchmark itself: checker, tracer, determinism, entry point.

Run with ``python -m pytest bench``.  They use small instances, so they
take a few seconds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import check
import inputs
from run import (ROOT, Passes, end_to_end, load_program, run_passes, scratch_dir,
                 summarize)
from tracer import SETUP, Tracer
from workloads import make_workload

PROG = load_program()


def small_instances(seed: int, count: int = 12):
    """Every mode of the large workloads and of ``files``, at desk size."""
    rng = random.Random(seed)
    kinds = inputs.LARGE_MODES + (("explicit", "shannon"), ("explicit", "koenig"))
    out = []
    for i in range(count):
        mode, assume = kinds[i % len(kinds)]
        out.append(inputs.make_instance(rng, f"t-{i}", mode, rng.randint(6, 20),
                                        6, 2, 25, assume))
    return out


def snapshot():
    """Every attribute of every listcolor module and of the classes in them."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "listcolor" or name.startswith("listcolor.")):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("listcolor"):
                for member, v in vars(value).items():
                    snap[(name, attr, member)] = v
    return snap


def assert_same(before, after):
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed, changed


# -- checker ---------------------------------------------------------------------


def triangle(lists=None):
    mode, assume = ("explicit", "shannon") if lists else ("shannon", None)
    return inputs.Instance("tri", mode, assume, 3, ((0, 1), (1, 2), (0, 2)), lists)


def test_checker_accepts_a_proper_coloring():
    lists = (frozenset({1, 2, 3}),) * 3
    assert check.check_coloring(triangle(lists), [1, 2, 3]) == []
    assert check.check_coloring(triangle(), [1, 2, 3]) == []


@pytest.mark.parametrize(
    "colors, expect",
    [
        ([1, 2, 1], "share color 1"),  # planted clash at vertex 0
        ([1, 2, 4], "outside its list"),  # 4 is in no list
        ([1, None, 3], "blank"),
        ([1, 2], "2 colors for 3 edges"),
    ],
)
def test_checker_rejects_clash_out_of_list_and_blank(colors, expect):
    lists = (frozenset({1, 2, 3}),) * 2 + (frozenset({1, 3}),)
    problems = check.check_coloring(triangle(lists), colors)
    assert any(expect in p for p in problems), problems


def test_checker_recomputes_the_bound_range():
    # Triangle, shannon: every vertex has degree 2, so the range is 1..3.
    problems = check.check_coloring(triangle(), [1, 2, 4])
    assert any("outside 1..3" in p for p in problems), problems
    # A pendant edge at a vertex of degree 1 next to a degree-2 vertex.
    path = inputs.Instance("p", "vizing", None, 3, ((0, 1), (1, 2)), None)
    assert check.check_coloring(path, [1, 3]) == []  # bound(1) = 2 + 1
    assert check.check_coloring(path, [1, 4])


def test_trace_counters_match_run_stats():
    for inst in small_instances(3):
        g, lists = PROG.io.parse_instance(inputs.instance_text(inst))
        if lists is None:
            lists = PROG.lists.generate_from_bounds(g, inst.mode)
        lines = []
        phi, stats = PROG.engine.color_graph(
            g, lists, inst.mode, assume_bound=inst.assume,
            trace=lambda rec: lines.append(PROG.io.format_trace_record(rec)))
        assert check.trace_counters("\n".join(lines), g.m) == check.counters(
            stats.steps, stats.content_steps, stats.fan_shifts, stats.path_shifts,
            stats.max_chain_length)
        text = PROG.io.write_coloring(phi.color)
        assert check.parse_coloring_text(text, g.m) == phi.color


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.INSTANCES))
def test_same_seed_regenerates_identical_inputs(workload):
    make = inputs.INSTANCES[workload]
    first = [inputs.instance_text(i) for i in make(5)]
    assert first == [inputs.instance_text(i) for i in make(5)]
    assert first != [inputs.instance_text(i) for i in make(6)]


def test_adversarial_lists_meet_the_bound():
    for inst in small_instances(4):
        if inst.lists is None:
            continue
        need = inputs.local_bounds(inst.n, inst.edges, inst.bound)
        for x in range(inst.n):
            at_x = [inst.lists[e] for e, uv in enumerate(inst.edges) if x in uv]
            if at_x:
                assert len(frozenset.intersection(*at_x)) >= need[x]


# -- runs and tracer ----------------------------------------------------------------


@pytest.mark.parametrize("workload", ["dense", "files"])
def test_untraced_run_leaves_the_program_untouched(workload):
    before = snapshot()
    with scratch_dir("test") as workdir:
        wl = make_workload(workload, PROG, workdir)
        cases = wl.setup(0, small_instances(1))
        p = run_passes(wl, cases, 60, max_passes=2)
    assert_same(before, snapshot())
    assert (p.attempted, p.failed, p.passes) == (2 * len(cases), 0, 2)
    metrics = end_to_end(p, 0.5)
    assert all(value > 0 for value, _ in metrics.values())
    assert p.probe_ms() > 0


def test_pooled_workers_must_agree():
    with scratch_dir("test") as workdir:
        wl = make_workload("dense", PROG, workdir)
        p = run_passes(wl, wl.setup(0, small_instances(1, 3)), 0, max_passes=1)
    part = json.loads(json.dumps(p.to_json()))  # as a worker writes it
    pooled = Passes(p.sizes)
    pooled.add(part)
    pooled.add(part)
    assert (pooled.attempted, pooled.failed, pooled.passes) == (6, 0, 2)
    assert all(len(t) == 2 for t in pooled.times_ns + pooled.probe_ns)
    scaled = Passes(p.sizes)
    scaled.add(part, 2.0)  # a worker on a machine at half the reference speed
    assert scaled.edges_per_s() == pytest.approx(p.edges_per_s() / 2)
    assert scaled.probe_ns == p.probe_ns
    part["results"][1][1][1] = "another digest"
    pooled.add(part)
    assert pooled.failed == 1 and pooled.bad == {1}


@pytest.mark.parametrize("workload", ["scale", "files"])
def test_traced_run_restores_every_wrapped_function(workload):
    before = snapshot()
    with scratch_dir("test") as workdir:
        wl = make_workload(workload, PROG, workdir)
        with Tracer() as tracer:
            assert PROG.engine.resolve_path is not before[("listcolor.engine",
                                                           "resolve_path")]
            assert PROG.cli.color_graph is PROG.engine.color_graph
            with tracer.phase(SETUP):
                cases = wl.setup(0, small_instances(2))
            p = run_passes(wl, cases, 0, tracer, max_passes=1)
    assert_same(before, snapshot())
    assert p.failed == 0
    metrics = tracer.layer_metrics()
    totals = summarize(p.ordered_results())
    assert metrics["engine.augment_calls"][0] == totals["steps"]
    assert metrics["branch.other"][0] == 0
    assert metrics["engine.color_graph_s"][0] > metrics["engine.self_s"][0] > 0
    # Only shifted chains count as chains; a happy edge shifts none.
    assert sum(tracer.chain_lengths.values()) == (totals["fan_shifts"]
                                                  + totals["path_shifts"])
    assert metrics["io.parse_instance_s"][0] > 0  # the traced set-up counts
    if workload == "scale":
        # The check after each call runs ``listcolor verify``; it is not traced.
        assert metrics["cli.main_s"][0] == 0
        assert metrics["share.cli"][0] == metrics["share.io"][0] == 0
    else:
        assert metrics["share.cli"][0] > 0


def test_tracer_restores_after_an_exception():
    before = snapshot()
    with pytest.raises(ValueError):
        with Tracer():
            PROG.engine.color_graph(None, None, "no-such-mode")
    assert_same(before, snapshot())


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    layer = set(tracer.layer_metrics()) | {"trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    with scratch_dir("test") as workdir:
        wl = make_workload("files", PROG, workdir)
        cases = wl.setup(0, small_instances(1, 2))
        p = run_passes(wl, cases, 0, max_passes=1)
    assert {m["name"] for m in spec["end_to_end"]} == set(end_to_end(p, 1.0))


def test_run_fails_without_the_program(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        spec["command"] + ["--workload", "files", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
