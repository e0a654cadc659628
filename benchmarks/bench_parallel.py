"""Serial-vs-parallel grid engine benchmark → ``BENCH_parallel.json``.

Runs a reduced Figure 9–11 grid (2 services × 3 BE jobs × 3 loads, each
cell simulated under Rhythm *and* Heracles) once inline (``workers=1``)
and once on the process pool, verifies the results are bit-identical,
and records wall clock, simulation events/sec and the speedup.

Profiling happens once in the parent before either timed run, so both
timings measure pure grid execution — exactly what the pool parallelises.

Run standalone (``PYTHONPATH=src python benchmarks/bench_parallel.py
[--workers 4] [--out BENCH_parallel.json]``) or via
``pytest benchmarks/bench_parallel.py --benchmark-only``.

The ≥2× speedup expectation only applies on hardware with enough cores;
the report records ``cpu_count`` so single-core CI runs stay honest.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List, Optional

from repro.bejobs.catalog import evaluation_be_jobs
from bench_env import environment
from repro.experiments.colocation import ColocationConfig
from repro.parallel.grid import (
    GridCell,
    comparison_fingerprint,
    run_comparison_grid,
)
from repro.parallel.profile import profile_services_parallel
from repro.workloads.catalog import LC_CATALOG

#: The reduced Figure 9-11 grid: 2 services x 3 BE jobs x 3 loads, at
#: double the usual per-cell duration so pool startup amortizes.
BENCH_SERVICES = ("E-commerce", "Redis")
BENCH_LOADS = (0.25, 0.45, 0.65)
BENCH_BE_JOBS = 3
BENCH_DURATION_S = 120.0
DEFAULT_REPORT = "BENCH_parallel.json"


def build_cells(seed: int = 0) -> List[GridCell]:
    """The benchmark's cell list (deterministic order)."""
    be_specs = evaluation_be_jobs()[:BENCH_BE_JOBS]
    return [
        GridCell(LC_CATALOG[name](), be, load, seed=seed)
        for name in BENCH_SERVICES
        for be in be_specs
        for load in BENCH_LOADS
    ]


def run_benchmark(
    workers: int = 4, seed: int = 0, out: Optional[str] = DEFAULT_REPORT
) -> Dict[str, object]:
    """Time the grid serial and parallel; write and return the report."""
    from repro.parallel.pool import get_pool

    config = ColocationConfig(duration_s=BENCH_DURATION_S)
    cells = build_cells(seed)

    # Profile once, up front: both timed runs ship the same artifacts.
    t0 = time.perf_counter()
    artifacts = profile_services_parallel(cells)
    profiling_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = run_comparison_grid(
        cells, config=config, workers=1, artifacts=artifacts
    )
    serial_s = time.perf_counter() - t0

    # The pool is persistent (one per process), so its startup is a
    # one-time cost — measure it apart from steady-state grid execution.
    t0 = time.perf_counter()
    if workers > 1:
        get_pool(workers)
    pool_startup_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_comparison_grid(
        cells, config=config, workers=workers, artifacts=artifacts
    )
    parallel_s = time.perf_counter() - t0

    identical = [comparison_fingerprint(r) for r in serial] == [
        comparison_fingerprint(r) for r in parallel
    ]
    events = sum(r.rhythm.events_fired + r.heracles.events_fired for r in serial)
    speedup = round(serial_s / parallel_s, 3) if parallel_s > 0 else None
    env = environment(parallel_speedup=speedup)
    cpu_count = env["cpu_count"]
    degraded = env["degraded"]
    from repro.sim.kernel import resolve_kernel

    report: Dict[str, object] = {
        "benchmark": "parallel_grid_engine",
        "kernel": resolve_kernel(),
        "grid": {
            "services": list(BENCH_SERVICES),
            "be_jobs": BENCH_BE_JOBS,
            "loads": list(BENCH_LOADS),
            "cells": len(cells),
            "simulations": 2 * len(cells),
            "duration_s_per_cell": BENCH_DURATION_S,
        },
        "cpu_count": cpu_count,
        "workers": workers,
        "profiling_s": round(profiling_s, 4),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "phases": {
            "profiling_s": round(profiling_s, 4),
            "pool_startup_s": round(pool_startup_s, 4),
            "serial_grid_s": round(serial_s, 4),
            "parallel_grid_s": round(parallel_s, 4),
        },
        "speedup": speedup,
        "degraded": degraded,
        "sim_events": events,
        "events_per_sec_serial": round(events / serial_s, 1) if serial_s > 0 else None,
        "events_per_sec_parallel": (
            round(events / parallel_s, 1) if parallel_s > 0 else None
        ),
        "identical_results": identical,
    }
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def test_parallel_grid_speedup(benchmark):
    """One measured round: serial vs 4-worker parallel, bit-identity checked."""
    from conftest import run_once

    report = run_once(benchmark, run_benchmark, workers=4)
    print()
    print(json.dumps(report, indent=2))
    assert report["identical_results"], "parallel results diverged from serial"
    cpus = report["cpu_count"] or 1
    if cpus >= 4:
        assert report["speedup"] >= 2.0, (
            f"expected >=2x speedup with 4 workers on {cpus} CPUs, "
            f"got {report['speedup']}x"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=DEFAULT_REPORT)
    args = parser.parse_args()
    report = run_benchmark(workers=args.workers, seed=args.seed, out=args.out)
    print(json.dumps(report, indent=2))
    if not report["identical_results"]:
        print("FAIL: parallel results diverged from serial")
        return 1
    note = " [degraded: not enough cores to parallelize]" if report["degraded"] else ""
    print(
        f"\n{report['grid']['simulations']} simulations | "
        f"serial {report['serial_s']}s | parallel {report['parallel_s']}s "
        f"({report['workers']} workers, {report['cpu_count']} CPUs) | "
        f"speedup {report['speedup']}x{note} | report -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
