"""Serial-vs-parallel profiling benchmark → ``BENCH_profile.json``.

Profiles the benchmark services three ways and records wall clock for
each phase:

- **serial** — the fanned-out pipeline run inline (``workers=1``),
  bit-identical to the live :class:`~repro.core.rhythm.Rhythm` pipeline;
- **parallel** — the same sweep tasks and Algorithm-1 walks through the
  persistent process pool;
- **cold / warm cache** — against a throwaway disk store, asserting the
  warm re-run executes *zero* sweep simulations.

Artifacts from every path are checked bit-identical before anything is
reported. Run standalone (``PYTHONPATH=src python
benchmarks/bench_profile.py [--workers 4] [--out BENCH_profile.json]``)
or via ``pytest benchmarks/bench_profile.py --benchmark-only``.

The ≥2.5× speedup expectation only applies on hardware with enough
cores; single-core hosts report ``degraded: true`` (pool overhead with
no spare core to absorb it) so the sub-1× ratio is never misread as a
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from bench_env import environment
from repro.cache.store import CacheStore
from repro.parallel.pool import get_pool, shutdown_pool
from repro.parallel.profile import (
    ProfileStats,
    clear_profile_memo,
    profile_service_parallel,
)
from repro.workloads.catalog import LC_CATALOG

#: Services to profile: multi-Servpod ones so the per-pod Algorithm-1
#: walks have something to fan out.
BENCH_SERVICES = ("E-commerce", "Redis")
DEFAULT_REPORT = "BENCH_profile.json"


def _profile_all(
    workers: int, cache: Optional[CacheStore] = None, stats: Optional[ProfileStats] = None
) -> List[object]:
    """Profile every benchmark service; memo cleared so nothing is reused."""
    clear_profile_memo()
    return [
        profile_service_parallel(
            LC_CATALOG[name](), seed=0, probe_slacklimits=True, workers=workers, cache=cache, stats=stats,
        )
        for name in BENCH_SERVICES
    ]


def run_benchmark(
    workers: int = 4, out: Optional[str] = DEFAULT_REPORT
) -> Dict[str, object]:
    """Time serial/parallel/cached profiling; write and return the report."""
    t0 = time.perf_counter()
    serial = _profile_all(workers=1)
    serial_s = time.perf_counter() - t0

    # Pool startup is a one-time per-process cost; measure it apart from
    # the steady-state profiling fan-out.
    t0 = time.perf_counter()
    if workers > 1:
        get_pool(workers)
    pool_startup_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = _profile_all(workers=workers)
    parallel_s = time.perf_counter() - t0

    cache_dir = tempfile.mkdtemp(prefix="rhythm-bench-profile-")
    try:
        store = CacheStore(cache_dir)
        cold_stats = ProfileStats()
        t0 = time.perf_counter()
        cold = _profile_all(workers=workers, cache=store, stats=cold_stats)
        cold_s = time.perf_counter() - t0
        warm_stats = ProfileStats()
        t0 = time.perf_counter()
        warm = _profile_all(workers=workers, cache=store, stats=warm_stats)
        warm_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    identical = serial == parallel == cold == warm
    warm_executed = warm_stats.sweep_executed + warm_stats.slack_executed
    speedup = round(serial_s / parallel_s, 3) if parallel_s > 0 else None
    env = environment(parallel_speedup=speedup)
    cpu_count = env["cpu_count"]
    degraded = env["degraded"]
    from repro.sim.kernel import resolve_kernel

    report: Dict[str, object] = {
        "benchmark": "parallel_profiling_pipeline",
        "kernel": resolve_kernel(),
        "services": list(BENCH_SERVICES),
        "sweep_points_per_service": 50,
        "cpu_count": cpu_count,
        "workers": workers,
        "phases": {
            "serial_s": round(serial_s, 4),
            "pool_startup_s": round(pool_startup_s, 4),
            "parallel_s": round(parallel_s, 4),
            "cold_cache_s": round(cold_s, 4),
            "warm_cache_s": round(warm_s, 4),
        },
        "speedup": speedup,
        "degraded": degraded,
        "warm_sweep_executed": warm_stats.sweep_executed,
        "warm_slack_executed": warm_stats.slack_executed,
        "warm_artifact_hits": warm_stats.artifact_cache_hits,
        "warm_zero_simulations": warm_executed == 0,
        "identical_results": identical,
    }
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def test_parallel_profiling_speedup(benchmark):
    """One measured round: serial vs pooled profiling plus cache warmup."""
    from conftest import run_once

    report = run_once(benchmark, run_benchmark, workers=4)
    print()
    print(json.dumps(report, indent=2))
    assert report["identical_results"], "parallel profiling diverged from serial"
    assert report["warm_zero_simulations"], (
        f"warm cache re-ran simulations: {report['warm_sweep_executed']} sweep, "
        f"{report['warm_slack_executed']} slacklimit"
    )
    cpus = report["cpu_count"] or 1
    if cpus >= 4:
        assert report["speedup"] >= 2.5, (
            f"expected >=2.5x profiling speedup with 4 workers on {cpus} "
            f"CPUs, got {report['speedup']}x"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default=DEFAULT_REPORT)
    args = parser.parse_args()
    report = run_benchmark(workers=args.workers, out=args.out)
    print(json.dumps(report, indent=2))
    shutdown_pool()
    if not report["identical_results"]:
        print("FAIL: parallel profiling diverged from serial")
        return 1
    if not report["warm_zero_simulations"]:
        print("FAIL: warm cache re-ran simulations")
        return 1
    note = " [degraded: not enough cores to parallelize]" if report["degraded"] else ""
    phases = report["phases"]
    print(
        f"\nprofiling: serial {phases['serial_s']}s | parallel "
        f"{phases['parallel_s']}s ({report['workers']} workers, "
        f"{report['cpu_count']} CPUs) | speedup {report['speedup']}x{note} | "
        f"warm cache {phases['warm_cache_s']}s, zero simulations | "
        f"report -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
