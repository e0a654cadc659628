"""Cold-vs-warm content-addressed cache benchmark → ``BENCH_cache.json``.

Runs a reduced Figure 9–11 grid (1 service × 3 BE jobs × 2 loads, each
cell simulated under Rhythm *and* Heracles) twice against a fresh
disk-backed :class:`~repro.cache.store.CacheStore`:

1. **cold** — every artifact and cell misses, profiles and simulates,
   and stores its result;
2. **warm** — the in-process Rhythm cache is cleared first, so *every*
   result (the profiling artifact included) must come back from disk;
   zero simulations run.

The warm results must be bit-identical to the cold ones (the stored
object *is* the cold result), and a warm re-run of an unchanged grid is
expected to be ≥5× faster than the cold run — on any hardware, since it
replaces simulation with deserialisation.

A second probe times writes into a large store: a fresh
:class:`~repro.cache.store.CacheStore` opened on a directory already
holding 2,000 entries makes 100 puts, and the report gives the mean
milliseconds per put (the store's one directory scan included).

Run standalone (``PYTHONPATH=src python benchmarks/bench_cache.py
[--out BENCH_cache.json]``) or via
``pytest benchmarks/bench_cache.py --benchmark-only``.
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
from repro.bejobs.catalog import evaluation_be_jobs
from repro.cache import CacheOutcomes, CacheStore, stable_hash
from repro.experiments.colocation import ColocationConfig
from repro.parallel.grid import (
    GridCell,
    comparison_fingerprint,
    run_comparison_grid,
)
from repro.parallel.profile import clear_profile_memo
from repro.workloads.catalog import LC_CATALOG

#: The reduced grid: 1 service x 3 BE jobs x 2 loads.
BENCH_SERVICE = "Redis"
BENCH_LOADS = (0.25, 0.65)
BENCH_BE_JOBS = 3
BENCH_DURATION_S = 60.0
DEFAULT_REPORT = "BENCH_cache.json"

#: Acceptance floor for the warm-over-cold speedup.
MIN_SPEEDUP = 5.0

#: Put probe: entries already in the store, timed puts, payload bytes.
PROBE_ENTRIES = 2000
PROBE_PUTS = 100
PROBE_PAYLOAD_BYTES = 1500


def build_cells(seed: int = 0) -> List[GridCell]:
    """The benchmark's cell list (deterministic order)."""
    spec = LC_CATALOG[BENCH_SERVICE]()
    return [
        GridCell(spec, be, load, seed=seed)
        for be in evaluation_be_jobs()[:BENCH_BE_JOBS]
        for load in BENCH_LOADS
    ]


def time_puts_into_filled_store() -> Dict[str, object]:
    """Mean ms per put for a new store opened on a pre-filled directory."""
    cache_dir = tempfile.mkdtemp(prefix="rhythm-bench-puts-")
    payload = b"x" * PROBE_PAYLOAD_BYTES
    try:
        filler = CacheStore(cache_dir)
        for i in range(PROBE_ENTRIES):
            filler.put(stable_hash(("fill", i)), payload)
        store = CacheStore(cache_dir)
        keys = [stable_hash(("probe", i)) for i in range(PROBE_PUTS)]
        t0 = time.perf_counter()
        for key in keys:
            store.put(key, payload)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "prefilled_entries": PROBE_ENTRIES,
        "puts": PROBE_PUTS,
        "payload_bytes": PROBE_PAYLOAD_BYTES,
        "ms_per_put": round(1000.0 * elapsed / PROBE_PUTS, 3),
    }


def run_benchmark(
    seed: int = 0, out: Optional[str] = DEFAULT_REPORT
) -> Dict[str, object]:
    """Time the grid cold and warm; write and return the report."""
    config = ColocationConfig(duration_s=BENCH_DURATION_S)
    cache_dir = tempfile.mkdtemp(prefix="rhythm-bench-cache-")
    try:
        store = CacheStore(cache_dir)
        cells = build_cells(seed)

        clear_profile_memo()
        cold_stats = CacheOutcomes()
        t0 = time.perf_counter()
        cold = run_comparison_grid(
            cells, config=config, workers=1, cache=store, cache_stats=cold_stats
        )
        cold_s = time.perf_counter() - t0

        # Clearing the in-process artifact memo forces the warm run to
        # reload everything — the profiling artifact included — from
        # disk, i.e. the cross-process warm behaviour in one process.
        clear_profile_memo()
        warm_stats = CacheOutcomes()
        t0 = time.perf_counter()
        warm = run_comparison_grid(
            cells, config=config, workers=1, cache=store, cache_stats=warm_stats
        )
        warm_s = time.perf_counter() - t0

        identical = [comparison_fingerprint(r) for r in cold] == [
            comparison_fingerprint(r) for r in warm
        ]
        disk = store.stats()
        report: Dict[str, object] = {
            "benchmark": "content_addressed_cache",
            "grid": {
                "service": BENCH_SERVICE,
                "be_jobs": BENCH_BE_JOBS,
                "loads": list(BENCH_LOADS),
                "cells": len(cells),
                "simulations": 2 * len(cells),
                "duration_s_per_cell": BENCH_DURATION_S,
            },
            **environment(),
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(cold_s / warm_s, 1) if warm_s > 0 else None,
            "cold": {
                "hits": cold_stats.hits,
                "misses": cold_stats.misses,
                "skipped": cold_stats.skipped,
            },
            "warm": {
                "hits": warm_stats.hits,
                "misses": warm_stats.misses,
                "skipped": warm_stats.skipped,
            },
            "store_entries": disk.entries,
            "store_bytes": disk.total_bytes,
            "identical_results": identical,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    report["put_into_filled_store"] = time_puts_into_filled_store()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def test_cache_warm_speedup(benchmark):
    """One measured round: cold vs warm, bit-identity and hit counts checked."""
    from conftest import run_once

    report = run_once(benchmark, run_benchmark)
    print()
    print(json.dumps(report, indent=2))
    assert report["identical_results"], "warm results diverged from cold"
    cells = report["grid"]["cells"]
    assert report["warm"] == {"hits": cells, "misses": 0, "skipped": 0}
    assert report["speedup"] >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP}x warm speedup, got {report['speedup']}x"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=DEFAULT_REPORT)
    args = parser.parse_args()
    report = run_benchmark(seed=args.seed, out=args.out)
    print(json.dumps(report, indent=2))
    if not report["identical_results"]:
        print("FAIL: warm results diverged from cold")
        return 1
    if report["warm"]["misses"] or report["warm"]["skipped"]:
        print("FAIL: warm run recomputed cells")
        return 1
    print(
        f"\n{report['grid']['simulations']} simulations | "
        f"cold {report['cold_s']}s | warm {report['warm_s']}s | "
        f"speedup {report['speedup']}x | bit-identical | "
        f"{report['put_into_filled_store']['ms_per_put']} ms/put into "
        f"{PROBE_ENTRIES} entries | report -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
