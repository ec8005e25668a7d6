"""Golden corpus: the colorings and counters of every workload on two seeds.

    python3 bench/golden.py            # compare against bench/golden.json
    python3 bench/golden.py --write    # record bench/golden.json

For the development seed and the held-out seed, each workload is set up
and colored once with tracing off.  Every instance's coloring digest and
its counters (steps, content steps, fan shifts, path shifts, longest
chain) are recorded.  A change that is meant to keep behaviour must leave
this file byte-identical; the check exits 1 and names the first instance
that differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import WORKLOADS, load_program, run_passes, scratch_dir, summarize
from workloads import make_workload

DEV_SEED = 1  # used while writing a change
HELDOUT_SEED = 7919  # kept for confirming a claim after the change is written
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def corpus(prog, workdir: str) -> dict:
    out = {}
    for seed in (DEV_SEED, HELDOUT_SEED):
        for name in WORKLOADS:
            wl = make_workload(name, prog, workdir)
            p = run_passes(wl, wl.setup(seed), 0, max_passes=1)
            if p.failed:
                raise SystemExit(f"{name} seed {seed}: {p.problems[0]}")
            out[f"{name}:{seed}"] = {
                "summary": summarize(p.ordered_results()),
                "instances": [" ".join(map(str, (inst, digest, *counters.values())))
                              for inst, digest, counters in p.ordered_results()],
            }
    return out


def first_difference(expected: dict, actual: dict) -> str | None:
    for key in sorted(expected.keys() | actual.keys()):
        a, b = expected.get(key), actual.get(key)
        if a == b:
            continue
        if a is None or b is None:
            return f"{key}: present on one side only"
        for x, y in zip(a["instances"], b["instances"]):
            if x != y:
                return f"{key}: expected {x}, got {y}"
        return f"{key}: expected {a['summary']}, got {b['summary']}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record the corpus")
    args = parser.parse_args(argv)
    prog = load_program()
    with scratch_dir("golden") as workdir:
        actual = corpus(prog, workdir)
    if args.write:
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.name}: {len(actual)} workload-seed pairs")
        return 0
    diff = first_difference(json.loads(GOLDEN.read_text()), actual)
    if diff:
        print(f"golden corpus differs: {diff}")
        return 1
    print(f"golden corpus matches: {len(actual)} workload-seed pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
