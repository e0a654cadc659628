"""Incremental fleet engine benchmark → ``BENCH_fleet_cache.json``.

Measures the shard-granular fleet result cache end to end:

- ``cold`` vs ``warm``: the same Alibaba-shaped fleet run twice against
  one fresh store per pair of the harness's cold/warm pairs. The warm
  run must be >=50x faster, execute ZERO simulations (every zone a
  hit) and reproduce the cold run's ``FleetResult.digest``
  bit-identically.
- ``resharded``: the warm fleet again under a different shard count —
  zone entries are shard-count-invariant, so it must also be all-hits.
- ``incremental``: one instance's seed is bumped (a one-zone edit) and
  the fleet re-run; only the touched zone may simulate.

Run standalone (``PYTHONPATH=src python benchmarks/bench_fleet_cache.py
[--out BENCH_fleet_cache.json] [--gate 50.0]``) or via
``pytest benchmarks/bench_fleet_cache.py --benchmark-only``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import harness
from repro.experiments.fleet import FleetConfig, FleetExperiment, alibaba_fleet

REPORT = "BENCH_fleet_cache.json"
GATE = 50.0

#: The probe fleet: big enough that a cold run is solidly measurable
#: (dozens of instances, ten simulated minutes) while a warm run is a
#: handful of store reads.
BENCH_MACHINES = 48
BENCH_DURATION_S = 600.0
BENCH_SEED = 11
BENCH_SHARDS = 4
BENCH_ZONE_SIZE = 4


def run_benchmark(
    out: Optional[str] = REPORT,
    gate: Optional[float] = None,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Run the cold/warm/resharded/incremental sequence and report."""
    config = FleetConfig(
        duration_s=BENCH_DURATION_S,
        shards=BENCH_SHARDS,
        workers=workers,
        zone_size=BENCH_ZONE_SIZE,
    )
    fleet = alibaba_fleet(
        BENCH_MACHINES,
        policy="heracles",
        duration_s=BENCH_DURATION_S,
        seed=BENCH_SEED,
        config=config,
    )
    # One-zone edit: bump one instance's seed. Only its zone's key
    # changes, so only that zone may re-simulate.
    specs = list(fleet.instances)
    edited_index = len(specs) // 2
    specs[edited_index] = dataclasses.replace(
        specs[edited_index], seed=specs[edited_index].seed + 10_000
    )

    def follow_up(store):
        resharded = FleetExperiment(
            fleet.instances, dataclasses.replace(config, shards=1)
        ).run(cache=store)
        incremental = FleetExperiment(specs, config).run(cache=store)
        return resharded, incremental, store.stats()

    pairs, (resharded, incremental, disk) = harness.cold_warm_pairs(
        lambda store: fleet.run(cache=store), follow_up
    )
    cold, warm = pairs.results[-1]
    zones = cold.cache.total
    body: Dict[str, object] = {
        "fleet": {
            "machines": cold.n_machines,
            "instances": cold.n_instances,
            "zones": zones,
            "duration_s": BENCH_DURATION_S,
            "shards": BENCH_SHARDS,
            "zone_size": BENCH_ZONE_SIZE,
        },
        "cold": harness.outcomes(cold.cache),
        "warm": harness.outcomes(warm.cache),
        "resharded": {**harness.outcomes(resharded.cache), "shards": 1},
        "incremental": {
            **harness.outcomes(incremental.cache),
            "edited_instance": edited_index,
            "edited_zone": edited_index // BENCH_ZONE_SIZE,
        },
        "store_entries": disk.entries,
        "store_bytes": disk.total_bytes,
    }
    checks = {
        "warm_zero_simulations": all(
            w.cache.simulated == 0 for _, w in pairs.results
        ),
        "warm_identical_digest": all(
            w.digest == c.digest for c, w in pairs.results
        ),
        "resharded_zero_simulations": resharded.cache.simulated == 0,
        "resharded_identical_digest": resharded.digest == cold.digest,
        "incremental_only_touched_zone": (
            incremental.cache.misses == 1
            and incremental.cache.hits == zones - 1
        ),
    }
    return harness.finish("fleet_zone_cache", body, checks, pairs, out, gate)


def test_fleet_cache_speedup(benchmark):
    """One measured round: warm >=50x, zero sims, identical digests."""
    harness.check(benchmark, run_benchmark, GATE)


if __name__ == "__main__":
    raise SystemExit(harness.main(run_benchmark, __doc__, REPORT, workers=None))
