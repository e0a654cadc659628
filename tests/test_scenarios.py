"""Tests for the production-ops scenario pack.

Covers the three drivers built on correlated storms and the fleet /
profile caches:

- ``storm_fleet`` / ``run_fleet_storm``: topology-fleet alignment is
  validated, untouched instances keep their spec *object* (and hence
  cache key), and the stormed fleet is bit-identical to the scalar
  reference across shard counts and process start methods;
- ``run_canary``: one seeded canary per zone, a whole-run latency
  shift, detection by canary-vs-controls tail ratio;
- ``run_drift``: each epoch's sweep grid slides right and only the
  newly-entered load points simulate when cached;
- ``run_capacity``: the machines-vs-demand curve is non-decreasing by
  construction and every accepted row meets the SLA target.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cache import CacheStore
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.fleet import FleetConfig, alibaba_fleet
from repro.experiments.scenarios import (
    CanaryReport,
    canary_indices,
    constant_fleet,
    drift_grid,
    run_canary,
    run_capacity,
    run_drift,
    run_fleet_storm,
    storm_fleet,
)
from repro.faults.topology import CorrelatedFaultSchedule, FleetTopology
from tests.probes import storm_identity_probe


@pytest.fixture
def store(tmp_path):
    return CacheStore(directory=str(tmp_path / "scenario-cache"))


def small_fleet(n_instances: int = 4, duration_s: float = 40.0, seed: int = 3):
    config = FleetConfig(duration_s=duration_s, workers=1, zone_size=2)
    return alibaba_fleet(
        2 * n_instances,
        policy="heracles",
        duration_s=duration_s,
        seed=seed,
        config=config,
    )


def small_storm(fleet, storm_seed: int = 7, events_per_minute: float = 2.0):
    topology = FleetTopology.generate(
        storm_seed,
        n_instances=len(fleet.instances),
        zone_size=fleet.config.zone_size,
    )
    return CorrelatedFaultSchedule.generate(
        storm_seed,
        topology,
        fleet.config.duration_s,
        events_per_minute=events_per_minute,
    )


class TestStormFleet:
    def test_rejects_mismatched_instance_count(self):
        fleet = small_fleet(4)
        topo = FleetTopology.generate(0, n_instances=99, zone_size=2)
        storm = CorrelatedFaultSchedule(topology=topo)
        with pytest.raises(ExperimentError, match="99 instances"):
            storm_fleet(fleet, storm)

    def test_rejects_mismatched_zone_size(self):
        fleet = small_fleet(4)
        topo = FleetTopology.generate(
            0, n_instances=len(fleet.instances), zone_size=4
        )
        storm = CorrelatedFaultSchedule(topology=topo)
        with pytest.raises(ExperimentError, match="zone_size"):
            storm_fleet(fleet, storm)

    def test_untouched_instances_keep_spec_identity(self):
        fleet = small_fleet(4)
        storm = small_storm(fleet)
        touched = set(storm.affected_instances())
        assert touched, "storm must touch something for this test to bite"
        stormed = storm_fleet(fleet, storm)
        for k, (before, after) in enumerate(
            zip(fleet.instances, stormed.instances)
        ):
            if k in touched:
                assert after is not before
                assert after.faults is not None and after.faults.faults
            else:
                assert after is before

    def test_expansion_rides_in_instance_faults(self):
        fleet = small_fleet(4)
        storm = small_storm(fleet)
        stormed = storm_fleet(fleet, storm)
        expanded = storm.per_instance_schedules()
        for index, schedule in expanded.items():
            spec = stormed.instances[index]
            for fault in schedule.faults:
                assert fault in spec.faults.faults

    def test_run_fleet_storm_shares_one_storm(self, store):
        # events_per_minute 6 -> 4 events, enough for the mix to include
        # faults that bind (a lone light NIC degrade can be invisible).
        report = run_fleet_storm(
            n_machines=8,
            policies=("heracles",),
            duration_s=40.0,
            seed=3,
            storm_seed=7,
            events_per_minute=6.0,
            config=FleetConfig(duration_s=40.0, workers=1, zone_size=2),
            cache=store,
            with_baseline=True,
        )
        assert len(report.storm) == 4
        assert report.topology.n_instances == 4
        stormed = report.result("heracles")
        baseline = report.baseline("heracles")
        assert stormed.n_instances == baseline.n_instances
        assert stormed.digest != baseline.digest
        with pytest.raises(ExperimentError, match="rhythm"):
            report.result("rhythm")
        with pytest.raises(ExperimentError, match="rhythm"):
            report.baseline("rhythm")

    def test_run_fleet_storm_needs_a_policy(self):
        with pytest.raises(ConfigurationError, match="policy"):
            run_fleet_storm(n_machines=8, policies=(), duration_s=40.0)


class TestStormIdentity:
    def test_fleet_matches_scalar_reference(self):
        case = {"n_instances": 4, "duration_s": 40.0, "seed": 5,
                "storm_seed": 7}
        assert storm_identity_probe("fleet", **case) == storm_identity_probe(
            "reference", **case
        )

    @pytest.mark.parametrize("shards", [2, 3])
    def test_shard_count_invariance(self, shards):
        case = {"n_instances": 4, "duration_s": 40.0, "seed": 5,
                "storm_seed": 7}
        assert storm_identity_probe(
            "fleet", shards=shards, **case
        ) == storm_identity_probe("fleet", shards=1, **case)

    def test_fork_subprocess_identity(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                storm_identity_probe,
                ("fleet",),
                {"n_instances": 3, "duration_s": 40.0, "seed": 5,
                 "storm_seed": 7},
            )
        parent = storm_identity_probe(
            "reference", n_instances=3, duration_s=40.0, seed=5, storm_seed=7
        )
        assert parent == child

    @pytest.mark.slow
    def test_spawn_subprocess_identity(self):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                storm_identity_probe,
                ("fleet",),
                {"n_instances": 3, "duration_s": 40.0, "seed": 5,
                 "storm_seed": 7},
            )
        parent = storm_identity_probe(
            "reference", n_instances=3, duration_s=40.0, seed=5, storm_seed=7
        )
        assert parent == child

    def test_probe_rejects_unknown_mode(self):
        with pytest.raises(ExperimentError, match="mode"):
            storm_identity_probe("turbo")


class TestCanary:
    def test_canary_indices_one_per_zone_deterministic(self):
        picks = canary_indices(16, 4, canary_seed=1)
        assert picks == canary_indices(16, 4, canary_seed=1)
        assert len(picks) == 4
        for zid, pick in enumerate(picks):
            assert zid * 4 <= pick < (zid + 1) * 4
        assert any(
            canary_indices(16, 4, canary_seed=s) != picks for s in range(2, 8)
        )

    def test_canary_indices_ragged_last_zone(self):
        picks = canary_indices(5, 2, canary_seed=0)
        assert len(picks) == 3
        assert picks[2] == 4  # the short zone has only one candidate

    def test_detects_planted_regression(self, store):
        report = run_canary(
            n_machines=8,
            duration_s=40.0,
            seed=3,
            canary_seed=1,
            slowdown=0.08,
            threshold=1.10,
            config=FleetConfig(duration_s=40.0, workers=1, zone_size=2),
            cache=store,
        )
        assert isinstance(report, CanaryReport)
        assert len(report.verdicts) == 2
        # A 0.08-magnitude stall multiplies every latency ~1.7x, and the
        # A/B is against the same instance's healthy run, so every zone
        # must flag its canary.
        assert report.detection_rate == 1.0
        for verdict in report.verdicts:
            assert verdict.tail_ratio > report.threshold
            assert verdict.canary_tail_ms > verdict.baseline_tail_ms
            assert verdict.zone * 2 <= verdict.canary_index < (verdict.zone + 1) * 2
        assert report.result.digest != report.baseline.digest

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError, match="slowdown"):
            run_canary(slowdown=0.0)
        with pytest.raises(ConfigurationError, match="threshold"):
            run_canary(threshold=0.0)


class TestDrift:
    def test_drift_grid_slides_and_rounds(self):
        assert drift_grid(0, start=0.2, step=0.1, window=3) == (0.2, 0.3, 0.4)
        assert drift_grid(1, start=0.2, step=0.1, window=3) == (0.3, 0.4, 0.5)
        # 4-decimal rounding keeps float drift out of cache keys.
        assert drift_grid(3, start=0.1, step=0.1, window=3,
                          drift_per_epoch=0.1) == (0.4, 0.5, 0.6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError, match="epochs"):
            run_drift(epochs=0)
        with pytest.raises(ConfigurationError, match="window"):
            run_drift(window=2)
        with pytest.raises(ConfigurationError, match="step"):
            run_drift(step=0.0)
        with pytest.raises(ConfigurationError, match="escapes"):
            run_drift(epochs=5, start=0.5, step=0.1, window=5)

    def test_incremental_reprofiling(self, store, fresh_profile_memo):
        report = run_drift(
            service="Redis",
            epochs=3,
            seed=0,
            start=0.2,
            step=0.1,
            window=3,
            requests_per_load=60,
            tail_samples=200,
            cache=store,
        )
        assert len(report.epochs) == 3
        first, *rest = report.epochs
        assert first.sweep_executed == 3
        assert first.sweep_cache_hits == 0
        for epoch in rest:
            # Window slides by exactly one step: one new point simulated,
            # the overlapping two served from the store.
            assert epoch.sweep_executed == 1
            assert epoch.sweep_cache_hits == 2
            assert epoch.loadlimits, "each epoch re-derives loadlimits"
        assert report.total_executed == 5
        assert report.total_cached == 4


class TestCapacity:
    def test_constant_fleet_validation(self):
        with pytest.raises(ConfigurationError, match="n_instances"):
            constant_fleet(0, 0.5)
        with pytest.raises(ConfigurationError, match="load"):
            constant_fleet(2, 0.0)
        with pytest.raises(ConfigurationError, match="load"):
            constant_fleet(2, 1.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError, match="base_demand"):
            run_capacity(base_demand=0.0)
        with pytest.raises(ConfigurationError, match="max_violation_rate"):
            run_capacity(max_violation_rate=1.5)
        with pytest.raises(ConfigurationError, match="max_per_instance_load"):
            run_capacity(max_per_instance_load=0.0)
        with pytest.raises(ConfigurationError, match="multipliers"):
            run_capacity(multipliers=())
        with pytest.raises(ConfigurationError, match="multipliers"):
            run_capacity(multipliers=(0.0, 1.0))

    def test_curve_is_monotone_and_meets_sla(self, store):
        report = run_capacity(
            multipliers=(1.0, 2.0),
            base_demand=3.0,
            duration_s=40.0,
            seed=0,
            config=FleetConfig(duration_s=40.0, workers=1, zone_size=2),
            cache=store,
        )
        rows = report.rows
        assert [r.multiplier for r in rows] == [1.0, 2.0]
        assert rows[0].instances <= rows[1].instances
        for row in rows:
            assert row.violation_rate <= report.max_violation_rate
            assert row.per_instance_load <= 0.85
            assert row.machines == row.instances * 2  # Redis has 2 pods
        assert report.machines_needed() == tuple(
            (r.multiplier, r.machines) for r in rows
        )

    def test_search_exhaustion_raises(self):
        with pytest.raises(ExperimentError, match="exhausted"):
            run_capacity(
                multipliers=(1.0,),
                base_demand=3.0,
                duration_s=40.0,
                search_limit=3,
                config=FleetConfig(duration_s=40.0, workers=1, zone_size=2),
            )
