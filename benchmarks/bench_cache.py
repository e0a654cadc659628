"""Cold-vs-warm content-addressed cache benchmark → ``BENCH_cache.json``.

Runs a reduced Figure 9–11 grid (1 service × 3 BE jobs × 2 loads, each
cell simulated under Rhythm *and* Heracles) twice against a fresh
disk-backed :class:`~repro.cache.store.CacheStore`, once per pair of the
harness's cold/warm pairs:

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

from typing import Dict, List, Optional

import harness
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
REPORT = "BENCH_cache.json"

#: Acceptance floor for the warm-over-cold speedup, asserted by the
#: pytest-benchmark target (this benchmark is not a CI gate).
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
    payload = b"x" * PROBE_PAYLOAD_BYTES
    with harness.fresh_store() as filler:
        for i in range(PROBE_ENTRIES):
            filler.put(stable_hash(("fill", i)), payload)
        store = CacheStore(filler.directory)
        keys = [stable_hash(("probe", i)) for i in range(PROBE_PUTS)]
        elapsed, _ = harness.timed(lambda: [store.put(k, payload) for k in keys])
    return {
        "prefilled_entries": PROBE_ENTRIES,
        "puts": PROBE_PUTS,
        "payload_bytes": PROBE_PAYLOAD_BYTES,
        "ms_per_put": round(1000.0 * elapsed / PROBE_PUTS, 3),
    }


def run_benchmark(
    seed: int = 0, out: Optional[str] = REPORT, gate: Optional[float] = None
) -> Dict[str, object]:
    """Time the grid cold and warm; write and return the report."""
    config = ColocationConfig(duration_s=BENCH_DURATION_S)
    cells = build_cells(seed)

    def grid(store: CacheStore):
        # Clearing the in-process artifact memo forces a warm run to
        # reload everything — the profiling artifact included — from
        # disk, i.e. the cross-process warm behaviour in one process.
        clear_profile_memo()
        stats = CacheOutcomes()
        results = run_comparison_grid(
            cells, config=config, workers=1, cache=store, cache_stats=stats
        )
        return results, stats

    pairs, disk = harness.cold_warm_pairs(grid, lambda store: store.stats())
    (_, cold_stats), (_, warm_stats) = pairs.results[-1]
    body: Dict[str, object] = {
        "grid": {
            "service": BENCH_SERVICE,
            "be_jobs": BENCH_BE_JOBS,
            "loads": list(BENCH_LOADS),
            "cells": len(cells),
            "simulations": 2 * len(cells),
            "duration_s_per_cell": BENCH_DURATION_S,
        },
        "cold": harness.outcomes(cold_stats),
        "warm": harness.outcomes(warm_stats),
        "store_entries": disk.entries,
        "store_bytes": disk.total_bytes,
        "put_into_filled_store": time_puts_into_filled_store(),
    }
    checks = {
        "identical_results": all(
            list(map(comparison_fingerprint, warm))
            == list(map(comparison_fingerprint, cold))
            for (cold, _), (warm, _) in pairs.results
        ),
        "warm_all_hits": all(
            stats.hits == len(cells) and stats.simulated == 0
            for _, (_, stats) in pairs.results
        ),
    }
    return harness.finish(
        "content_addressed_cache", body, checks, pairs, out, gate
    )


def test_cache_warm_speedup(benchmark):
    """One measured round: cold vs warm, bit-identity and hit counts checked."""
    harness.check(benchmark, run_benchmark, MIN_SPEEDUP)


if __name__ == "__main__":
    raise SystemExit(harness.main(run_benchmark, __doc__, REPORT, gated=False, seed=0))
