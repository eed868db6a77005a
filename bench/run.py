"""Benchmark of cube-transport, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package need not be installed.
Each workload runs in fresh worker processes (bench/worker.py) that import
the program from src/. The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: setup_s (median over
SETUP_RUNS fresh processes, from process start until the inputs are ready),
wall_s and cpu_s (median per round), peak_rss_mb (of the measuring process).
With --trace 1 they are the per-layer metrics of one traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("cli-suites", "triangular-maps", "exact-coupling")
SETUP_RUNS = 5
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric -> unit; every name is printed on every traced run
PER_LAYER = {
    "cli.density-check_s": "s", "cli.verify-knothe_s": "s",
    "cli.tire_s": "s", "cli.concentration_s": "s", "cli.counterexample_s": "s",
    "cli.emit_report_s": "s", "svg.write_profile_svg_s": "s",
    "concentration.counterexample_scaling_s": "s",
    "sampler.iter_equicorrelated_cube_s": "s",
    "sampler.equicorrelated_candidates": "count",
    "sampler.equicorrelated_normals": "count",
    "sampler.equicorrelated_acceptance": "ratio",
    "sampler.sample_grid_s": "s", "sampler.sample_grid_points": "count",
    "concentration.halfspace_profile_s": "s",
    "concentration.poincare_lsi_check_s": "s",
    "knothe.knothe_map_s": "s", "knothe.fibers": "count",
    "knothe.evaluate_s": "s", "knothe.evaluate_points": "count",
    "knothe.check_facet_preservation_s": "s", "knothe.tire_bracket_s": "s",
    "knothe.pushforward_error_s": "s",
    "transport1d.monotone_map_s": "s", "transport1d.monotone_map_calls": "count",
    "functionals.triangular_coupling_cost_s": "s",
    "functionals.triangular_coupling_s": "s", "functionals.coupling_atoms": "count",
    "functionals.exact_w2_small_s": "s", "functionals.exact_w2_small_calls": "count",
    "functionals.linprog_s": "s", "functionals.lp_variables": "count",
    "functionals.lp_iterations": "count", "functionals.plan_support": "count",
    "functionals.legendre_tire_bound_s": "s", "functionals.relative_entropy_s": "s",
    "density.build_density_s": "s", "density.diagnostics_s": "s",
    "trace.overhead_s": "s", "trace.unspanned_s": "s", "trace.spans": "count",
}


class WorkerError(RuntimeError):
    pass


def spawn(worker_args: list, deadline: float) -> tuple:
    """Run one worker to its end. Returns (seconds from start until it printed
    ``ready``, its output after that line)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + worker_args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(worker_args)} exited with code {code}")
    return ready, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cube-transport benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "cube_transport", "__init__.py")):
        print(f"error: no cube_transport sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(common + ["--setup-only"], deadline)[0])
        ready, output = spawn(common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)], deadline)
        result = json.loads(output.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)

    if args.trace:
        print(f"{args.workload} seed {args.seed}: untraced round "
              f"{result['untraced_wall_s']:.3f}s, traced round {result['traced_wall_s']:.3f}s")
        layers = result["layers"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        print(f"{args.workload} seed {args.seed}: setup {setups}, rounds "
              f"{[round(w, 3) for w in result['walls']]}")
        values = {"setup_s": statistics.median(setups), "wall_s": result["wall_s"],
                  "cpu_s": result["cpu_s"], "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
