"""Serial-vs-parallel grid engine benchmark → ``BENCH_parallel.json``.

Runs a reduced Figure 9–11 grid (2 services × 3 BE jobs × 3 loads, each
cell simulated under Rhythm *and* Heracles) inline (``workers=1``) and
on the process pool in interleaved pairs, verifies the results are
bit-identical, and records wall clock, simulation events/sec, the
median pair's speedup, the envelopes the pool shipped (one per worker
chunk) and peak resident memory of the parent and of the workers.

Profiling happens once in the parent before any timed run, so every
timing measures pure grid execution — exactly what the pool
parallelises.

Run standalone (``PYTHONPATH=src python benchmarks/bench_parallel.py
[--workers 2] [--out BENCH_parallel.json] [--gate 1.0]``) or via
``pytest benchmarks/bench_parallel.py --benchmark-only``. ``--workers``
defaults to ``RHYTHM_WORKERS``, then the CPU count.

``--gate X`` fails the run when the results diverge, or when the host
has at least two CPUs and the speedup is below X; on one CPU the pool
cannot speed anything up, so the speedup half of the gate is skipped
(and says so). The report records ``cpu_count`` so single-core runs
stay honest.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from typing import Dict, List, Optional

from repro.bejobs.catalog import evaluation_be_jobs
from bench_env import environment
from repro.experiments.colocation import ColocationConfig
from repro.parallel.grid import (
    GridCell,
    comparison_fingerprint,
    resolve_workers,
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
#: Interleaved serial/pooled timing pairs; the report reads the median.
PAIRS = 3
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


def _peak_rss_mb(who: int) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is KB on Linux)."""
    return round(resource.getrusage(who).ru_maxrss / 1024.0, 1)


def run_benchmark(
    workers: Optional[int] = None,
    seed: int = 0,
    out: Optional[str] = DEFAULT_REPORT,
    gate: Optional[float] = None,
) -> Dict[str, object]:
    """Time the grid serial and parallel; write and return the report."""
    from repro.parallel.pool import (
        get_pool,
        pool_stats,
        reset_pool_stats,
        shutdown_pool,
    )
    from repro.sim.kernel import resolve_kernel

    workers = resolve_workers(workers)
    config = ColocationConfig(duration_s=BENCH_DURATION_S)
    cells = build_cells(seed)

    # Profile once, up front: every timed run ships the same artifacts.
    t0 = time.perf_counter()
    artifacts = profile_services_parallel(cells)
    profiling_s = time.perf_counter() - t0

    # The pool is persistent (one per process), so its startup is a
    # one-time cost — measure it apart from steady-state grid execution.
    t0 = time.perf_counter()
    if workers > 1:
        get_pool(workers)
    pool_startup_s = time.perf_counter() - t0

    def timed(n_workers: int):
        start = time.perf_counter()
        results = run_comparison_grid(
            cells, config=config, workers=n_workers, artifacts=artifacts
        )
        return results, time.perf_counter() - start

    pairs: List[Dict[str, float]] = []
    identical = True
    envelopes = retries = 0
    for _ in range(PAIRS):
        serial, serial_s = timed(1)
        reset_pool_stats()
        parallel, parallel_s = timed(workers)
        stats = pool_stats()
        envelopes, retries = stats.submitted, stats.retries
        identical = identical and [
            comparison_fingerprint(r) for r in serial
        ] == [comparison_fingerprint(r) for r in parallel]
        pairs.append(
            {
                "serial_s": round(serial_s, 4),
                "parallel_s": round(parallel_s, 4),
                "speedup": round(serial_s / parallel_s, 3),
            }
        )
    serial_s = statistics.median(p["serial_s"] for p in pairs)
    parallel_s = statistics.median(p["parallel_s"] for p in pairs)
    speedup = statistics.median(p["speedup"] for p in pairs)
    rss_parent = _peak_rss_mb(resource.RUSAGE_SELF)
    shutdown_pool()  # reaps the workers, so their peak RSS is readable
    rss_workers = _peak_rss_mb(resource.RUSAGE_CHILDREN)

    events = sum(r.rhythm.events_fired + r.heracles.events_fired for r in serial)
    env = environment(parallel_speedup=speedup)
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
        **env,
        "workers": workers,
        "profiling_s": round(profiling_s, 4),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "phases": {
            "profiling_s": round(profiling_s, 4),
            "pool_startup_s": round(pool_startup_s, 4),
            "serial_grid_s": serial_s,
            "parallel_grid_s": parallel_s,
        },
        "pairs": pairs,
        "speedup": speedup,
        "envelopes_shipped": envelopes,
        "pool_retries": retries,
        "peak_rss_mb": {"parent": rss_parent, "worker_max": rss_workers},
        "sim_events": events,
        "events_per_sec_serial": round(events / serial_s, 1),
        "events_per_sec_parallel": round(events / parallel_s, 1),
        "identical_results": identical,
    }
    if gate is not None:
        report["gate"] = gate
        report["gate_passed"] = identical and (
            env["cpu_count"] < 2 or speedup >= gate
        )
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
    if cpus >= 2:
        assert report["speedup"] >= 1.0, (
            f"the pool slowed the grid down on {cpus} CPUs: "
            f"{report['speedup']}x"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=DEFAULT_REPORT)
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail (exit 1) if results diverge, or if the host has >= 2 "
        "CPUs and the median pair's speedup < GATE",
    )
    args = parser.parse_args()
    report = run_benchmark(
        workers=args.workers, seed=args.seed, out=args.out, gate=args.gate
    )
    print(json.dumps(report, indent=2))
    if not report["identical_results"]:
        print("FAIL: parallel results diverged from serial")
        return 1
    note = " [degraded: not enough cores to parallelize]" if report["degraded"] else ""
    print(
        f"\n{report['grid']['simulations']} simulations | "
        f"serial {report['serial_s']}s | parallel {report['parallel_s']}s "
        f"({report['workers']} workers, {report['cpu_count']} CPUs, "
        f"{report['envelopes_shipped']} envelopes) | "
        f"speedup {report['speedup']}x{note} | report -> {args.out}"
    )
    if args.gate is not None:
        if report["cpu_count"] < 2:
            print(f"gate {args.gate}x skipped: 1 CPU cannot run a pool faster")
        elif not report["gate_passed"]:
            print(f"FAIL: speedup {report['speedup']}x below gate {args.gate}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
