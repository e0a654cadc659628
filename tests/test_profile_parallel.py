"""The parallel profiling pipeline's acceptance gates.

Covers the issue's criteria for the profiling fan-out:

- parallel profiling (inline, fork pool, and spawn pool) is bit-identical
  to the serial ``Rhythm`` pipeline: same loadlimits, same slacklimits,
  same artifact hash;
- a warm cache re-run executes **zero** sweep or slacklimit simulations,
  at both artifact and sub-profile granularity;
- a cold grid run — profiling plus execution — constructs exactly one
  process pool;
- worker-count resolution: ``RHYTHM_PROFILE_WORKERS`` wins over
  ``RHYTHM_WORKERS``, sub-1 values clamp to a safe inline run, garbage
  raises up front.
"""

from __future__ import annotations

import pytest

from repro.bejobs.catalog import evaluation_be_jobs
from repro.cache.keys import stable_hash
from repro.cache.store import CacheStore
from repro.errors import ExperimentError, ProfilingError
from repro.experiments.colocation import ColocationConfig
from repro.experiments.runner import get_rhythm
from repro.core.rhythm import RhythmConfig
from repro.parallel import (
    GridCell,
    artifact_for,
    comparison_fingerprint,
    run_comparison_grid,
)
from repro.parallel.pool import (
    pool_constructions,
    reset_pool_state_for_tests,
    resolve_profile_workers,
)
from repro.parallel.profile import (
    ProfileStats,
    artifact_cache_key,
    clear_profile_memo,
    profile_service_parallel,
)
from conftest import make_tiny_service

FAST = ColocationConfig(duration_s=20.0, sample_cap=150, min_samples=50)


@pytest.fixture(autouse=True)
def _fresh_profiling_state():
    clear_profile_memo()
    yield
    clear_profile_memo()


@pytest.fixture(scope="module")
def service():
    return make_tiny_service("profile-par-svc")


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / "cache")


class TestProfilingIdentity:
    """The acceptance gate: fanned-out profiling == serial pipeline."""

    def test_inline_matches_serial_pipeline(self, service):
        serial = artifact_for(service, seed=0, probe_slacklimits=True)
        clear_profile_memo()
        parallel = profile_service_parallel(
            service, seed=0, probe_slacklimits=True, workers=1
        )
        assert parallel.loadlimit_map() == serial.loadlimit_map()
        assert parallel.slacklimit_map() == serial.slacklimit_map()
        assert parallel.contribution_map() == serial.contribution_map()
        assert parallel == serial
        assert stable_hash(parallel) == stable_hash(serial)

    def test_pooled_matches_serial_pipeline(self, service):
        serial = artifact_for(service, seed=0, probe_slacklimits=True)
        clear_profile_memo()
        pooled = profile_service_parallel(
            service, seed=0, probe_slacklimits=True, workers=2
        )
        assert pooled == serial
        assert stable_hash(pooled) == stable_hash(serial)

    def test_analytic_slacklimits_match_too(self, service):
        serial = artifact_for(service, seed=0, probe_slacklimits=False)
        clear_profile_memo()
        parallel = profile_service_parallel(
            service, seed=0, probe_slacklimits=False, workers=2
        )
        assert parallel == serial

    def test_memo_keys_on_the_spec_not_its_name(self):
        # Two specs that share a name but not an SLA must not share an
        # artifact (or, on the serial route, a pipeline).
        original, edited = make_tiny_service(), make_tiny_service(sla_ms=120.0)
        for spec in (original, edited):
            artifact = profile_service_parallel(
                spec, probe_slacklimits=False, workers=1
            )
            assert artifact.sla_ms == spec.sla_ms
            rhythm = get_rhythm(spec, probe_slacklimits=False)
            assert rhythm.spec.sla_ms == spec.sla_ms
        assert artifact == artifact_for(edited, probe_slacklimits=False)

    def test_validation_mirrors_serial_profiler(self, service):
        with pytest.raises(ProfilingError):
            profile_service_parallel(
                service, config=RhythmConfig(loads=(0.2, 0.8))
            )
        with pytest.raises(ProfilingError):
            profile_service_parallel(
                service, config=RhythmConfig(requests_per_load=5)
            )


class TestWarmProfileCache:
    """A warm cache re-run must execute zero simulations."""

    def test_artifact_level_hit(self, service, store):
        cold = ProfileStats()
        first = profile_service_parallel(
            service, seed=0, workers=1, cache=store, stats=cold
        )
        assert cold.sweep_executed == cold.sweep_points > 0
        assert cold.slack_executed == cold.slack_walks == len(
            service.servpod_names
        )
        clear_profile_memo()
        warm = ProfileStats()
        second = profile_service_parallel(
            service, seed=0, workers=1, cache=store, stats=warm
        )
        assert second == first
        assert warm.artifact_cache_hits == 1
        assert warm.sweep_executed == 0 and warm.slack_executed == 0
        assert warm.sweep_points == 0 and warm.slack_walks == 0

    def test_sub_profile_hits_after_artifact_eviction(self, service, store):
        cold = ProfileStats()
        first = profile_service_parallel(
            service, seed=0, workers=1, cache=store, stats=cold
        )
        # Evict only the artifact entry: the load points and slacklimit
        # walks must then be reassembled entirely from the store.
        store._path(
            artifact_cache_key(service, 0, "direct", True)
        ).unlink()
        clear_profile_memo()
        warm = ProfileStats()
        second = profile_service_parallel(
            service, seed=0, workers=1, cache=store, stats=warm
        )
        assert second == first
        assert warm.sweep_executed == 0 and warm.slack_executed == 0
        assert warm.sweep_cache_hits == cold.sweep_points
        assert warm.slack_cache_hits == cold.slack_walks

    def test_stats_merge_accumulates(self):
        a = ProfileStats(sweep_points=3, sweep_executed=2, sweep_cache_hits=1)
        b = ProfileStats(
            sweep_points=5, slack_walks=2, slack_executed=1,
            slack_cache_hits=1, artifact_cache_hits=4,
        )
        a.merge(b)
        assert a == ProfileStats(
            sweep_points=8, sweep_executed=2, sweep_cache_hits=1,
            slack_walks=2, slack_executed=1, slack_cache_hits=1,
            artifact_cache_hits=4,
        )


class TestSinglePoolPerColdRun:
    def test_cold_grid_run_constructs_one_pool(self, service):
        # Profiling fans out first, then grid execution: both must share
        # one ProcessPoolExecutor.
        cells = [
            GridCell(service, be, load, seed=0)
            for be in evaluation_be_jobs()[:2]
            for load in (0.25, 0.65)
        ]
        reset_pool_state_for_tests()
        run_comparison_grid(
            cells, config=FAST, workers=2, profile_workers=2
        )
        assert pool_constructions() == 1


class TestSpawnContextFallback:
    def test_spawn_profiling_and_grid_bit_identical(self, service, monkeypatch):
        serial_artifact = artifact_for(service, seed=0, probe_slacklimits=True)
        cells = [
            GridCell(service, evaluation_be_jobs()[0], load, seed=0)
            for load in (0.25, 0.65)
        ]
        artifacts = {service.name: serial_artifact}
        serial_grid = run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts
        )
        monkeypatch.setenv("RHYTHM_MP_CONTEXT", "spawn")
        reset_pool_state_for_tests()
        try:
            clear_profile_memo()
            spawned_artifact = profile_service_parallel(
                service, seed=0, probe_slacklimits=True, workers=2
            )
            spawned_grid = run_comparison_grid(
                cells, config=FAST, workers=2, artifacts=artifacts
            )
            assert spawned_artifact == serial_artifact
            assert [comparison_fingerprint(r) for r in spawned_grid] == [
                comparison_fingerprint(r) for r in serial_grid
            ]
            assert pool_constructions() == 1
        finally:
            # Later tests must rebuild under the default (fork) context.
            reset_pool_state_for_tests()


class TestResolveProfileWorkers:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("RHYTHM_PROFILE_WORKERS", "7")
        assert resolve_profile_workers(3) == 3

    def test_profile_env_wins_over_workers_env(self, monkeypatch):
        monkeypatch.setenv("RHYTHM_WORKERS", "2")
        monkeypatch.setenv("RHYTHM_PROFILE_WORKERS", "6")
        assert resolve_profile_workers() == 6

    def test_falls_back_to_workers_env(self, monkeypatch):
        monkeypatch.delenv("RHYTHM_PROFILE_WORKERS", raising=False)
        monkeypatch.setenv("RHYTHM_WORKERS", "4")
        assert resolve_profile_workers() == 4

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_sub_one_env_clamps_to_inline(self, monkeypatch, value):
        monkeypatch.setenv("RHYTHM_PROFILE_WORKERS", value)
        assert resolve_profile_workers() == 1

    def test_explicit_sub_one_clamps(self):
        assert resolve_profile_workers(0) == 1
        assert resolve_profile_workers(-2) == 1

    @pytest.mark.parametrize("value", ["many", "2.5", ""])
    def test_garbage_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("RHYTHM_PROFILE_WORKERS", value)
        monkeypatch.setenv("RHYTHM_WORKERS", "nope")
        with pytest.raises(ExperimentError):
            resolve_profile_workers()

    def test_non_integer_explicit_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_profile_workers(2.5)
        with pytest.raises(ExperimentError):
            resolve_profile_workers(True)
