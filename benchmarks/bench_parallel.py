"""Serial-vs-parallel grid engine benchmark → ``BENCH_parallel.json``.

Runs a reduced Figure 9–11 grid (2 services × 3 BE jobs × 3 loads, each
cell simulated under Rhythm *and* Heracles) inline (``workers=1``) and
on the process pool in the harness's interleaved pairs, verifies every
pair's results are bit-identical, and records wall clock, simulation
events/sec, the median pair's speedup, the envelopes the pool shipped
(one per worker chunk) and peak resident memory of the parent and of
the workers.

Profiling happens once in the parent before any timed run, so every
timing measures pure grid execution — exactly what the pool
parallelises.

Run standalone (``PYTHONPATH=src python benchmarks/bench_parallel.py
[--workers 2] [--out BENCH_parallel.json] [--gate 1.0]``) or via
``pytest benchmarks/bench_parallel.py --benchmark-only``. ``--workers``
defaults to ``RHYTHM_WORKERS``, then the CPU count. The speedup is a
pool ratio: on one CPU the gate checks identity alone.
"""

from __future__ import annotations

import resource
from typing import Dict, List, Optional

import harness
from repro.bejobs.catalog import evaluation_be_jobs
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
REPORT = "BENCH_parallel.json"
GATE = 1.0


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
    out: Optional[str] = REPORT,
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
    profiling_s, artifacts = harness.timed(
        lambda: profile_services_parallel(cells)
    )
    # The pool is persistent (one per process), so its startup is a
    # one-time cost — measure it apart from steady-state grid execution.
    pool_startup_s, _ = harness.timed(
        lambda: get_pool(workers) if workers > 1 else None
    )

    def grid(n_workers: int):
        return run_comparison_grid(
            cells, config=config, workers=n_workers, artifacts=artifacts
        )

    def pooled():
        reset_pool_stats()
        return grid(workers)

    pairs = harness.ab_pairs(lambda: grid(1), pooled, ("serial_s", "parallel_s"))
    stats = pool_stats()  # of the last pooled run: inline runs skip the pool
    rss_parent = _peak_rss_mb(resource.RUSAGE_SELF)
    shutdown_pool()  # reaps the workers, so their peak RSS is readable
    rss_workers = _peak_rss_mb(resource.RUSAGE_CHILDREN)

    serial = pairs.results[0][0]
    events = sum(r.rhythm.events_fired + r.heracles.events_fired for r in serial)
    prints = [comparison_fingerprint(r) for r in serial]
    body: Dict[str, object] = {
        "kernel": resolve_kernel(),
        "grid": {
            "services": list(BENCH_SERVICES),
            "be_jobs": BENCH_BE_JOBS,
            "loads": list(BENCH_LOADS),
            "cells": len(cells),
            "simulations": 2 * len(cells),
            "duration_s_per_cell": BENCH_DURATION_S,
        },
        "workers": workers,
        "profiling_s": round(profiling_s, 4),
        "pool_startup_s": round(pool_startup_s, 4),
        "envelopes_shipped": stats.submitted,
        "pool_retries": stats.retries,
        "peak_rss_mb": {"parent": rss_parent, "worker_max": rss_workers},
        "sim_events": events,
        "events_per_sec_serial": round(events / pairs.median(0), 1),
        "events_per_sec_parallel": round(events / pairs.median(1), 1),
    }
    checks = {
        "identical_results": all(
            [comparison_fingerprint(r) for r in side] == prints
            for pair in pairs.results
            for side in pair
        )
    }
    return harness.finish(
        "parallel_grid_engine", body, checks, pairs, out, gate, pool=True
    )


def test_parallel_grid_speedup(benchmark):
    """One measured round: serial vs 4-worker parallel, bit-identity checked."""
    report = harness.check(benchmark, run_benchmark, GATE, workers=4)
    cpus = report["cpu_count"]
    if cpus >= 4:
        assert report["speedup"] >= 2.0, (
            f"expected >=2x speedup with 4 workers on {cpus} CPUs, "
            f"got {report['speedup']}x"
        )


if __name__ == "__main__":
    raise SystemExit(
        harness.main(run_benchmark, __doc__, REPORT, workers=None, seed=0)
    )
