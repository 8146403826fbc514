"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` next to this directory, never from an
installed copy.  Inputs are made from ``--seed``, every output is checked
against references recorded in ``perfbench/refs``, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the layer boundaries are wrapped in
spans and the metrics are the per-layer ones.  The timings in both are
in reference seconds (see ``speed.py``); the span self times are wall
seconds.  The line before it records the seed, the pass count, the failure share, the
wall and probe seconds and where the run ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import RefClock  # noqa: E402
from stats import self_times, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Context, Ledger  # noqa: E402

RUN_BUDGET_S = 150.0  # no new work starts later, so a run ends within 180 s
WORK_DIR = ROOT / ".perfbench_work"

# Metric names and units come from BENCHMARK.json at the checkout root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def import_library():
    """Import ``engelgraph`` from this checkout's ``src``; exit 1 if absent."""
    src = ROOT / "src"
    if not (src / "engelgraph" / "__init__.py").is_file():
        sys.exit(f"run.py: no library at {src / 'engelgraph'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import engelgraph

    if Path(engelgraph.__file__).resolve().parent != (src / "engelgraph").resolve():
        sys.exit(f"run.py: imported engelgraph from {engelgraph.__file__}, not from {src}")
    return engelgraph


def provenance(eg) -> dict:
    import networkx

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "engelgraph": eg.__version__,
        "commit": commit,
    }


def layer_value(name: str, tracer: Tracer, seconds: dict, calls: dict, body_s: float):
    """A per-layer metric: a counter, ``<span>.calls``, or ``<span>.s`` self
    seconds; ``families.construct.s`` sums every family constructor."""
    if name == "trace.body_s":
        return body_s
    if name in tracer.counts:
        return tracer.counts[name]
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return calls.get(span, 0)
    if span == "families.construct":
        return sum(s for n, s in seconds.items() if n.startswith("families."))
    return seconds.get(span, 0.0)


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    clock = RefClock()
    start = clock.now()
    eg = import_library()
    import_s = clock.now() - start
    workload = WORKLOADS[args.workload]
    passes = max(workload.min_passes, round(args.seconds / workload.pass_s))
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    ctx = Context(eg, ROOT, work, args.seed, passes, started + RUN_BUDGET_S, clock)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(eg)
        clock.now = tracer.span("bench.clock", clock.now)  # probes are no layer's self time
    try:
        setup_times = []
        for _ in range(workload.setup_repeats):
            start = clock.now()
            built = workload.setup(ctx)
            setup_times.append(clock.now() - start)
        state = workload.prepare(ctx, built)
        del built
        ledger = Ledger()
        passes_run = [workload.run_pass(ctx, state, ledger, i) for i in range(passes)]
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for failure in ledger.failures:
        print("FAILED", failure)
    samples = [s for p in passes_run for s in p.samples]
    body_s = sum(p.survey_s + p.verify_s for p in passes_run)
    percentile, tail = tail_percentile(samples)
    failed, attempted = len(ledger.failures), ledger.attempted
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.seed_used,
        "passes": passes,
        "body_s": body_s,
        "group_samples": len(samples),
        "tail_percentile": percentile,
        "failed_frac": failed / attempted,
        "wall_s": perf_counter() - started,
        "probes": clock.probes,
        "probe_s": clock.probe_s,
        "provenance": provenance(eg),
    }))
    if tracer is not None:
        tracer.write(WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.tsv")
        seconds, calls = self_times(tracer.spans, tracer.names)
        metrics = {
            m["name"]: {"value": layer_value(m["name"], tracer, seconds, calls, body_s),
                        "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "survey_s": sum(p.survey_s for p in passes_run) / passes,
            "verify_s": sum(p.verify_s for p in passes_run) / passes,
            "groups_per_s": len(samples) / body_s,
            "group_p50_ms": 1000 * statistics.median(samples),
            "group_tail_ms": 1000 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
