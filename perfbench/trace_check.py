"""Check the traced run: its counts repeat exactly, and what tracing costs.

    python3 perfbench/trace_check.py [CHECKOUT] [--workloads catalog,large]

For each workload, one untraced and two traced runs with seed 1, each as
long as ``run_seconds`` in the checkout's ``BENCHMARK.json``.
Every count metric (``.calls``, ``mul_calls``, ``vertices``, ``edges``)
must be identical across the two traced runs; the tracing overhead is the
traced body seconds minus the untraced body seconds, both in reference
seconds (see ``speed.py``).  Exits 1 if a count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import run_bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=HERE.parent)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    seconds = json.loads((args.checkout / "BENCHMARK.json").read_text())["run_seconds"]

    repeat_ok = True
    for workload in args.workloads.split(","):
        plain, _ = run_bench(args.checkout, workload, SEED, seconds, 0)
        first = run_bench(args.checkout, workload, SEED, seconds, 1)[1]["metrics"]
        second = run_bench(args.checkout, workload, SEED, seconds, 1)[1]["metrics"]
        counts = [n for n, m in first.items() if m["unit"] == "count"]
        differing = [n for n in counts if first[n]["value"] != second[n]["value"]]
        repeat_ok &= not differing
        traced = min(first["trace.body_s"]["value"], second["trace.body_s"]["value"])
        overhead = traced - plain["body_s"]
        print(f"{workload:10} counts repeated: {len(counts) - len(differing)}/{len(counts)}"
              + (f" (differ: {', '.join(differing)})" if differing else "")
              + f"; body {plain['body_s']:.2f} s untraced, {traced:.2f} s traced;"
              f" overhead {overhead:.2f} s ({100 * overhead / plain['body_s']:.0f}%)")
        for name in counts:
            print(f"{'':10} {name:32} {first[name]['value']}")
    return 0 if repeat_ok else 1


if __name__ == "__main__":
    sys.exit(main())
