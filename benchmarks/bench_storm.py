"""Correlated fault-storm benchmark → ``BENCH_storm.json``.

Measures the storm pipeline against the zone-granular fleet cache:

- ``cold`` vs ``warm``: the same seeded storm overlaid on the same
  fleet, run twice against one fresh store per pair of the harness's
  cold/warm pairs. Every warm run must execute ZERO simulations and
  reproduce its cold ``FleetResult.digest`` bit-identically — a storm
  is just per-instance fault schedules, so it caches like any other
  fleet.
- ``resharded``: the stormed fleet under different shard counts.
  Shards are a wall-clock knob, never a cache-key coordinate, so every
  shard count must be all-hits with an identical digest.
- ``one_event``: the storm minus its smallest-blast event. Only the
  zones inside that event's blast radius may re-simulate; every other
  zone must hit the cold run's entries.

Run standalone (``PYTHONPATH=src python benchmarks/bench_storm.py
[--out BENCH_storm.json] [--gate 10.0]``) or via
``pytest benchmarks/bench_storm.py --benchmark-only``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import harness
from repro.experiments.fleet import FleetConfig, FleetExperiment, alibaba_fleet
from repro.experiments.scenarios import storm_fleet
from repro.faults.topology import CorrelatedFaultSchedule, FleetTopology

REPORT = "BENCH_storm.json"
GATE = 10.0

#: The probe fleet: enough zones that blast radii are a strict subset
#: and the warm-vs-cold gap is solidly measurable.
BENCH_MACHINES = 48
BENCH_DURATION_S = 240.0
BENCH_SEED = 11
BENCH_STORM_SEED = 7
BENCH_SHARDS = 4
BENCH_ZONE_SIZE = 4
BENCH_EVENTS_PER_MINUTE = 1.0
RESHARD_COUNTS = (1, 2, 8)


def run_benchmark(
    out: Optional[str] = REPORT,
    gate: Optional[float] = None,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Run the cold/warm/resharded/one-event sequence and report."""
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
    topology = FleetTopology.generate(
        BENCH_STORM_SEED,
        n_instances=len(fleet.instances),
        zone_size=BENCH_ZONE_SIZE,
    )
    storm = CorrelatedFaultSchedule.generate(
        BENCH_STORM_SEED,
        topology,
        BENCH_DURATION_S,
        events_per_minute=BENCH_EVENTS_PER_MINUTE,
    )
    stormed = storm_fleet(fleet, storm)

    # The event whose blast radius is smallest and a strict subset of
    # the fleet drives the one-event incrementality check.
    dropped = min(storm.events, key=lambda e: len(storm.blast_zones(e)))
    dropped_zones = storm.blast_zones(dropped)
    reduced = dataclasses.replace(
        storm, events=tuple(e for e in storm.events if e != dropped)
    )
    reduced_fleet = storm_fleet(fleet, reduced)

    def follow_up(store):
        resharded = {
            shards: FleetExperiment(
                stormed.instances, dataclasses.replace(config, shards=shards)
            ).run(cache=store)
            for shards in RESHARD_COUNTS
        }
        return resharded, reduced_fleet.run(cache=store), store.stats()

    pairs, (resharded, one_event, disk) = harness.cold_warm_pairs(
        lambda store: stormed.run(cache=store), follow_up
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
        "storm": {
            "seed": BENCH_STORM_SEED,
            "events": len(storm),
            "events_per_minute": BENCH_EVENTS_PER_MINUTE,
            "affected_zones": len(storm.affected_zones()),
            "counts_by_kind": dict(sorted(storm.counts_by_kind().items())),
        },
        "cold": harness.outcomes(cold.cache),
        "warm": harness.outcomes(warm.cache),
        "resharded": {
            str(shards): harness.outcomes(res.cache)
            for shards, res in resharded.items()
        },
        "one_event": {
            **harness.outcomes(one_event.cache),
            "dropped_event": f"{dropped.kind.value} {dropped.domain}",
            "dropped_blast_zones": sorted(dropped_zones),
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
        "resharded_zero_simulations": all(
            res.cache.simulated == 0 for res in resharded.values()
        ),
        "resharded_identical_digest": all(
            res.digest == cold.digest for res in resharded.values()
        ),
        "one_event_only_blast_radius": (
            one_event.cache.misses == len(dropped_zones)
            and one_event.cache.hits == zones - len(dropped_zones)
        ),
        "blast_radius_strict_subset": len(dropped_zones) < zones,
    }
    return harness.finish("fleet_storm", body, checks, pairs, out, gate)


def test_storm_cache(benchmark):
    """One measured round: warm zero-sim, shard-invariant, blast-exact."""
    harness.check(benchmark, run_benchmark, GATE)


if __name__ == "__main__":
    raise SystemExit(harness.main(run_benchmark, __doc__, REPORT, workers=None))
