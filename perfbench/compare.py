"""Compare a parent checkout with a change checkout, workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--workloads catalog,large]

Each pair runs the benchmark once in each checkout with the same seed, the
parent first in even pairs and the change first in odd ones; pair i uses
seed ``1 + i``.  Both checkouts must hold the same benchmark code and the
same ``BENCHMARK.json``.  For every workload the comparator prints one row
with each side's failure share, then one row per end-to-end metric with
each side's median and quartiles, the pairs the change won, and the verdict
of ``stats.judge`` under the metric's bound from the parent's
``BENCHMARK.json``; a gain is not counted when the change fails a larger
share of its operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import judge, more_failures  # noqa: E402

RUN_TIMEOUT_S = 300
FIRST_SEED = 1


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run the benchmark in ``checkout``; return its record line and result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def bench_digest(checkout: Path) -> str:
    """Hash of ``BENCHMARK.json`` and every file of the benchmark."""
    digest = hashlib.sha256()
    files = [checkout / "BENCHMARK.json", *sorted((checkout / "perfbench").rglob("*"))]
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(checkout).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("the pair rule needs at least 10 pairs")
    if bench_digest(args.parent) != bench_digest(args.change):
        parser.error("the two checkouts hold different benchmark code or BENCHMARK.json")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs: dict[str, dict[str, list]] = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                _, result = run_bench(getattr(args, side), workload, FIRST_SEED + i,
                                      spec["run_seconds"], 0)
                runs[workload][side].append(result)
                print(f"pair {i} {workload} {side}: {json.dumps(result['metrics'])}",
                      file=sys.stderr)

    for workload in workloads:
        sides = runs[workload]
        shares = {
            side: (sum(r["failed"] for r in sides[side]), sum(r["attempted"] for r in sides[side]))
            for side in sides
        }
        fails_more = more_failures(shares["parent"], shares["change"])
        print(f"{workload:10} failed share: parent {shares['parent'][0]}/{shares['parent'][1]}, "
              f"change {shares['change'][0]}/{shares['change'][1]}"
              + ("  MORE FAILURES IN CHANGE: gains not counted" if fails_more else ""))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict = judge([r["metrics"][name]["value"] for r in sides["parent"]],
                            [r["metrics"][name]["value"] for r in sides["change"]],
                            metric["better"], metric["bound"], fails_more)
            p, c = verdict["parent"], verdict["change"]
            print(f"{workload:10} {name:14} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f"  wins {verdict['change_wins']}/{verdict['pairs']}"
                  f"  worse {100 * verdict['worse_share']:+.1f}% (bound {100 * metric['bound']:.0f}%)"
                  f"  {verdict['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
