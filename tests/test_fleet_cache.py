"""Tests for shard-granular fleet result caching.

The cache unit is a *zone* — the shard-count-invariant slice of the
fleet — keyed by :func:`repro.experiments.fleet.zone_cache_key` over
the zone's instance specs plus the result-affecting ``FleetConfig``
fields. The load-bearing contracts:

- shard count (and every other wall-clock knob) is NOT a key
  coordinate: 1/2/4/8-way shardings of the same fleet hit the same
  per-zone entries;
- a warm re-run executes zero simulations and reproduces the cold
  run's ``FleetResult.digest`` bit-identically;
- editing one zone re-simulates only that zone;
- corrupt or evicted entries silently fall back to recompute.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache import CacheOutcomes, CacheStore
from repro.errors import CacheKeyError
from repro.experiments.fleet import (
    FleetConfig,
    FleetExperiment,
    FleetInstanceSpec,
    alibaba_fleet,
    heracles_fleet_policies,
    zone_cache_key,
)
from repro.loadgen.patterns import CallableLoad, ConstantLoad
from repro.parallel.pool import broadcast, shard_task_key


def small_fleet(
    n_instances: int = 4,
    duration_s: float = 30.0,
    seed: int = 3,
    **config_kwargs,
) -> FleetExperiment:
    config_kwargs.setdefault("workers", 1)
    config_kwargs.setdefault("zone_size", 2)
    config = FleetConfig(duration_s=duration_s, **config_kwargs)
    return alibaba_fleet(
        2 * n_instances,
        policy="heracles",
        duration_s=duration_s,
        seed=seed,
        config=config,
    )


def constant_specs(n: int, seed0: int = 70) -> list:
    policies = tuple(sorted(heracles_fleet_policies("Redis").items()))
    return [
        FleetInstanceSpec(
            service="Redis",
            policies=policies,
            be_jobs=("stream-llc",),
            pattern=ConstantLoad(0.5),
            seed=seed0 + k,
        )
        for k in range(n)
    ]


def half_load(t: float) -> float:
    """Module-level so CallableLoad specs stay picklable by reference."""
    return 0.5


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / "fleet-cache")


class TestZoneCacheKey:
    def test_wall_clock_knobs_are_not_coordinates(self):
        specs = tuple(constant_specs(4))
        config = FleetConfig(duration_s=30.0, shards=1, workers=1, zone_size=4)
        key = zone_cache_key(specs, config)
        for variant in (
            dataclasses.replace(config, shards=8),
            dataclasses.replace(config, workers=None),
            dataclasses.replace(config, zone_size=2),
            dataclasses.replace(config, epoch_ticks=5),  # governor off
        ):
            assert zone_cache_key(specs, variant) == key

    def test_result_affecting_fields_are_coordinates(self):
        specs = tuple(constant_specs(4))
        config = FleetConfig(duration_s=30.0)
        key = zone_cache_key(specs, config)
        for variant in (
            dataclasses.replace(config, duration_s=40.0),
            dataclasses.replace(config, sample_cap=100),
            dataclasses.replace(config, max_be_instances=8),
            dataclasses.replace(config, violation_threshold=0.5),
        ):
            assert zone_cache_key(specs, variant) != key

    def test_epoch_ticks_matters_only_when_governed(self):
        specs = tuple(constant_specs(4))
        governed = FleetConfig(duration_s=30.0, violation_threshold=0.5)
        assert zone_cache_key(
            specs, dataclasses.replace(governed, epoch_ticks=5)
        ) != zone_cache_key(specs, governed)

    def test_specs_are_coordinates(self):
        specs = constant_specs(4)
        config = FleetConfig(duration_s=30.0)
        key = zone_cache_key(tuple(specs), config)
        edited = list(specs)
        edited[0] = dataclasses.replace(edited[0], seed=999)
        assert zone_cache_key(tuple(edited), config) != key
        assert zone_cache_key(tuple(specs[:3]), config) != key

    def test_unhashable_pattern_raises(self):
        spec = dataclasses.replace(
            constant_specs(1)[0], pattern=CallableLoad(half_load)
        )
        with pytest.raises(CacheKeyError):
            zone_cache_key((spec,), FleetConfig(duration_s=30.0))


class TestFleetCaching:
    def test_uncached_run_reports_no_stats(self):
        result = small_fleet(n_instances=2, duration_s=20.0).run()
        assert result.cache is None

    def test_cache_true_honors_rhythm_cache_off(self, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "c"))
        monkeypatch.setenv("RHYTHM_CACHE", "off")
        result = small_fleet(n_instances=2, duration_s=20.0).run(cache=True)
        assert result.cache is None

    def test_warm_rerun_zero_simulations_identical_digest(self, store):
        fleet = small_fleet()
        cold = fleet.run(cache=store)
        assert cold.cache.misses == 2 and cold.cache.hits == 0
        warm = fleet.run(cache=store)
        assert warm.cache.hits == 2 and warm.cache.simulated == 0
        assert warm.digest == cold.digest
        assert warm.zone_records == cold.zone_records
        assert [s.index for s in warm.instances] == [
            s.index for s in cold.instances
        ]

    def test_warm_matches_uncached_result_exactly(self, store):
        fleet = small_fleet()
        plain = fleet.run()
        fleet.run(cache=store)
        warm = fleet.run(cache=store)
        assert warm.digest == plain.digest
        assert [dataclasses.astuple(s) for s in warm.instances] == [
            dataclasses.astuple(s) for s in plain.instances
        ]

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_shard_counts_hit_the_same_entries(self, store, shards):
        cold = small_fleet(shards=1).run(cache=store)
        refit = small_fleet(shards=shards)
        warm = refit.run(cache=store)
        assert warm.cache.hits == cold.cache.total
        assert warm.cache.simulated == 0
        assert warm.digest == cold.digest

    def test_single_zone_edit_resimulates_only_that_zone(self, store):
        fleet = small_fleet(n_instances=6, shards=2)  # 3 zones of 2
        cold = fleet.run(cache=store)
        assert cold.cache.misses == 3
        specs = list(fleet.instances)
        specs[2] = dataclasses.replace(specs[2], seed=specs[2].seed + 1000)
        edited = FleetExperiment(specs, fleet.config)
        incremental = edited.run(cache=store)
        assert incremental.cache.hits == 2
        assert incremental.cache.misses == 1
        # Untouched instances keep their exact digests.
        for k in (0, 1, 4, 5):
            assert (
                incremental.instances[k].digest == cold.instances[k].digest
            )
        assert incremental.instances[2].digest != cold.instances[2].digest
        # And the incremental result is itself fully warm now.
        assert edited.run(cache=store).cache.simulated == 0

    def test_growing_the_fleet_reuses_existing_zones(self, store):
        fleet = small_fleet(n_instances=4)
        fleet.run(cache=store)
        grown = FleetExperiment(
            list(fleet.instances) + constant_specs(2), fleet.config
        )
        result = grown.run(cache=store)
        assert result.cache.hits == 2  # the original zones
        assert result.cache.misses == 1  # the appended zone

    def test_governed_fleet_caches_zone_records(self, store):
        fleet = small_fleet(
            duration_s=40.0, violation_threshold=0.5, epoch_ticks=5
        )
        cold = fleet.run(cache=store)
        warm = fleet.run(cache=store)
        assert warm.cache.simulated == 0
        assert warm.digest == cold.digest
        assert warm.zone_records == cold.zone_records
        assert len(cold.zone_records) > 0

    def test_corrupted_entry_recomputes(self, store):
        fleet = small_fleet()
        cold = fleet.run(cache=store)
        victim = store._entries()[0]
        victim.write_bytes(b"\x80\x05 not a fleet zone")
        warm = fleet.run(cache=store)
        assert warm.cache.misses == 1 and warm.cache.hits == 1
        assert warm.digest == cold.digest
        # The recompute re-stored the entry.
        assert fleet.run(cache=store).cache.simulated == 0

    def test_malformed_payload_shape_recomputes(self, store):
        fleet = small_fleet()
        cold = fleet.run(cache=store)
        key = zone_cache_key(fleet.instances[:2], fleet.config)
        store.put(key, {"not": "a zone tuple"})
        warm = fleet.run(cache=store)
        assert warm.cache.misses == 1
        assert warm.digest == cold.digest

    def test_lru_eviction_under_tiny_cap(self, tmp_path):
        fleet = small_fleet()
        probe = CacheStore(tmp_path / "probe")
        fleet.run(cache=probe)
        entry_bytes = probe.stats().total_bytes // probe.stats().entries
        tiny = CacheStore(
            tmp_path / "tiny", max_bytes=int(1.5 * entry_bytes)
        )
        cold = fleet.run(cache=tiny)
        assert tiny.evictions > 0
        assert tiny.stats().total_bytes <= tiny.max_bytes
        # Some zones were evicted, so the re-run is only partially warm
        # — but still bit-identical.
        warm = fleet.run(cache=tiny)
        assert warm.cache.hits >= 1
        assert warm.digest == cold.digest

    def test_uncacheable_zone_counted_skipped(self, store):
        specs = constant_specs(4)
        specs[3] = dataclasses.replace(
            specs[3], pattern=CallableLoad(half_load)
        )
        config = FleetConfig(duration_s=20.0, workers=1, zone_size=2)
        fleet = FleetExperiment(specs, config)
        first = fleet.run(cache=store)
        assert first.cache.misses == 1 and first.cache.skipped == 1
        again = fleet.run(cache=store)
        assert again.cache.hits == 1 and again.cache.skipped == 1
        assert again.digest == first.digest


class TestFleetCacheStats:
    def test_totals_and_merge(self):
        stats = CacheOutcomes(hits=2, misses=1, skipped=1)
        assert stats.total == 4
        assert stats.simulated == 2
        other = CacheOutcomes(hits=1)
        other.merge(stats)
        assert other.hits == 3 and other.total == 5


class TestShardTaskKey:
    def test_key_depends_on_payload_and_spans_only(self):
        ref_a = broadcast(("payload", 1))
        ref_b = broadcast(("payload", 2))
        spans = ((0, 4), (8, 2))
        assert shard_task_key("fleet-shard", ref_a, spans) == shard_task_key(
            "fleet-shard", ref_a, spans
        )
        assert shard_task_key("fleet-shard", ref_a, spans) != shard_task_key(
            "fleet-shard", ref_b, spans
        )
        assert shard_task_key("fleet-shard", ref_a, spans) != shard_task_key(
            "fleet-shard", ref_a, ((0, 4),)
        )

    def test_pending_plan_matches_historical_sharding(self):
        # A cold run (every zone pending) must reproduce the historical
        # contiguous zone-aligned plan, with adjacent zones merged into
        # one span per shard.
        fleet = small_fleet(n_instances=4, shards=2)
        plan_2 = fleet._pending_shard_plan(
            [(z, s, c, None) for z, s, c in fleet.zone_plan()]
        )
        solo = FleetExperiment(
            fleet.instances, dataclasses.replace(fleet.config, shards=1)
        )
        plan_1 = solo._pending_shard_plan(
            [(z, s, c, None) for z, s, c in solo.zone_plan()]
        )
        assert plan_1 == (((0, 4),),)
        assert plan_2 == (((0, 2),), ((2, 2),))
        # A non-contiguous pending set keeps separate spans.
        sparse = solo._pending_shard_plan(
            [(0, 0, 2, None), (2, 4, 2, None)]
        )
        assert sparse == (((0, 2), (4, 2)),)


class TestStormCacheInteraction:
    """Correlated storms invalidate exactly their blast-radius zones.

    Storm faults ride inside ``FleetInstanceSpec.faults``, which
    ``zone_cache_key`` already hashes — so a zone's key changes iff the
    storm's blast radius intersects it, a warm re-run of the identical
    storm executes zero simulations, and editing one domain event
    re-simulates only that event's blast radius.
    """

    def stormed_pair(self, events_per_minute: float = 2.0, storm_seed: int = 7):
        from repro.experiments.scenarios import storm_fleet
        from repro.faults.topology import CorrelatedFaultSchedule, FleetTopology

        fleet = small_fleet(n_instances=6)
        topology = FleetTopology.generate(
            storm_seed, n_instances=len(fleet.instances), zone_size=2
        )
        storm = CorrelatedFaultSchedule.generate(
            storm_seed,
            topology,
            fleet.config.duration_s,
            events_per_minute=events_per_minute,
        )
        return fleet, storm, storm_fleet(fleet, storm)

    def zone_keys(self, fleet):
        size = fleet.config.zone_size
        return [
            zone_cache_key(fleet.instances[start:start + size], fleet.config)
            for start in range(0, len(fleet.instances), size)
        ]

    def test_zone_key_changes_iff_blast_radius_intersects(self):
        fleet, storm, stormed = self.stormed_pair()
        touched = set(storm.affected_zones())
        assert 0 < len(touched) < len(self.zone_keys(fleet))
        for zone, (healthy_key, stormed_key) in enumerate(
            zip(self.zone_keys(fleet), self.zone_keys(stormed))
        ):
            if zone in touched:
                assert stormed_key != healthy_key
            else:
                assert stormed_key == healthy_key

    def test_warm_identical_storm_zero_simulations(self, store):
        _fleet, _storm, stormed = self.stormed_pair()
        cold = stormed.run(cache=store)
        warm = stormed.run(cache=store)
        assert warm.cache.simulated == 0
        assert warm.cache.hits == cold.cache.total
        assert warm.digest == cold.digest

    def test_one_event_change_recomputes_only_blast_radius(self, store):
        from repro.experiments.scenarios import storm_fleet

        fleet, storm, stormed = self.stormed_pair(events_per_minute=3.0)
        cold = stormed.run(cache=store)
        zones = cold.cache.total
        # Drop the event with the smallest blast radius; only its zones'
        # merged fault schedules change.
        dropped = min(storm.events, key=lambda e: len(storm.blast_zones(e)))
        changed = set(storm.blast_zones(dropped))
        assert changed and len(changed) < zones
        reduced = dataclasses.replace(
            storm, events=tuple(e for e in storm.events if e != dropped)
        )
        edited = storm_fleet(fleet, reduced).run(cache=store)
        assert edited.cache.misses == len(changed)
        assert edited.cache.hits == zones - len(changed)

    def test_storm_entries_are_shard_invariant(self, store):
        _fleet, _storm, stormed = self.stormed_pair()
        cold = stormed.run(cache=store)
        for shards in (1, 3):
            re_run = FleetExperiment(
                stormed.instances,
                dataclasses.replace(stormed.config, shards=shards),
            ).run(cache=store)
            assert re_run.cache.simulated == 0
            assert re_run.digest == cold.digest
