"""One workload in one fresh process.

The worker imports the program from ``src/``, builds the workload's inputs,
prints ``ready``, and then either exits (``--setup-only``) or runs rounds of
the workload and prints one JSON object as its last line of output.

Untraced (``--trace 0``): rounds until ``--seconds`` have passed, at least
one; wall and CPU time are medians over rounds, peak RSS is the process's.
Traced (``--trace 1``): one untraced round, then the tracer is installed, the
inputs are built again and one traced round runs; the result holds the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".bench-out")


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed_round(workload) -> tuple:
    wall, cpu = time.perf_counter(), _cpu()
    result = workload.run_round()
    return result, time.perf_counter() - wall, _cpu() - cpu


def same_artifacts(results) -> bool:
    """Rounds of one seed give the same reports (cli-suites); True elsewhere."""
    texts = [r.artifact for r in results if r.artifact is not None]
    return all(t == texts[0] for t in texts)


def run_untraced(workload, seconds: float) -> dict:
    results, walls, cpus = [], [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        result, wall, cpu = timed_round(workload)
        results.append(result)
        walls.append(wall)
        cpus.append(cpu)
    return {
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "correct": same_artifacts(results),
        "rounds": len(results),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(workload) -> dict:
    plain, plain_wall, _ = timed_round(workload)
    tracer = Tracer()
    missing = tracer.install()
    for name in missing:
        print(f"[bench] traced function not found: {name}", file=sys.stderr)
    try:
        setup_root = tracer.begin("bench.setup")
        workload.setup()
        tracer.end(setup_root)
        round_root = tracer.begin("bench.round")
        traced, traced_wall, _ = timed_round(workload)
        tracer.end(round_root)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    selfs = tracer.self_times()
    metrics["trace.unspanned_s"] = selfs[round_root]
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.spans"] = len(tracer.spans)
    accounting = max(tracer.accounting_error(setup_root), tracer.accounting_error(round_root))
    if accounting > 1e-6:
        print(f"[bench] span self times miss the traced wall by {accounting:.3g}s",
              file=sys.stderr)
    reproducible = same_artifacts([plain, traced])
    if not reproducible:
        print("[bench] traced report.json differs from the untraced one", file=sys.stderr)
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "correct": reproducible and accounting <= 1e-6,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "layers": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT_ROOT)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = run_traced(workload)
    else:
        result = run_untraced(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
