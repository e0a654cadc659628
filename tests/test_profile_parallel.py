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

from dataclasses import replace

import pytest

from repro.bejobs.catalog import evaluation_be_jobs
from repro.cache.keys import stable_hash
from repro.cache.store import CacheOutcomes, CacheStore
from repro.errors import ExperimentError, ProfilingError
from repro.experiments.colocation import ColocationConfig
from repro.experiments.runner import get_rhythm
from repro.core.profiler import LoadPointProfile
from repro.core.rhythm import RhythmConfig
from repro.parallel import (
    GridCell,
    RhythmArtifact,
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


pytestmark = pytest.mark.usefixtures("fresh_profile_memo")


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

    def test_artifact_level_hit(self, service, store, fresh_profile_memo):
        cold = ProfileStats()
        first = profile_service_parallel(
            service, seed=0, workers=1, cache=store, stats=cold
        )
        assert cold.sweep_executed == cold.sweep.total > 0
        assert cold.slack_executed == cold.slack.total == len(
            service.servpod_names
        )
        fresh_profile_memo()
        warm = ProfileStats()
        second = profile_service_parallel(
            service, seed=0, workers=1, cache=store, stats=warm
        )
        assert second == first
        assert warm.artifact_cache_hits == 1
        assert warm.sweep_executed == 0 and warm.slack_executed == 0
        assert warm.sweep.total == 0 and warm.slack.total == 0

    def test_sub_profile_hits_after_artifact_eviction(
        self, service, store, fresh_profile_memo
    ):
        cold = ProfileStats()
        first = profile_service_parallel(
            service, seed=0, workers=1, cache=store, stats=cold
        )
        # Evict only the artifact entry: the load points and slacklimit
        # walks must then be reassembled entirely from the store.
        store._path(
            artifact_cache_key(service, 0, "direct", True)
        ).unlink()
        fresh_profile_memo()
        warm = ProfileStats()
        second = profile_service_parallel(
            service, seed=0, workers=1, cache=store, stats=warm
        )
        assert second == first
        assert warm.sweep_executed == 0 and warm.slack_executed == 0
        assert warm.sweep.hits == cold.sweep.total
        assert warm.slack.hits == cold.slack.total

    def test_stats_merge_accumulates(self):
        a = ProfileStats(sweep=CacheOutcomes(hits=1, misses=2))
        b = ProfileStats(
            sweep=CacheOutcomes(hits=2, skipped=3),
            slack=CacheOutcomes(hits=1, misses=1),
            artifact_cache_hits=4,
        )
        a.merge(b)
        assert a == ProfileStats(
            sweep=CacheOutcomes(hits=3, misses=2, skipped=3),
            slack=CacheOutcomes(hits=1, misses=1),
            artifact_cache_hits=4,
        )
        # Executed is every unit but the hits.
        assert (a.sweep_executed, a.slack_executed) == (5, 1)


class _RecordingStore(CacheStore):
    """Records every put, so a test can find each unit's live key."""

    def __init__(self, directory):
        super().__init__(directory)
        self.puts = []

    def put(self, key, payload):
        self.puts.append((key, payload))
        return super().put(key, payload)

    def keys_of(self, kind):
        return [key for key, payload in self.puts if isinstance(payload, kind)]


class TestWrongShapedEntries:
    """A wrong-shaped entry under a live key is a miss: the unit is
    recomputed bit-identically and its entry overwritten."""

    def _cold(self, service, tmp_path):
        store = _RecordingStore(tmp_path / "cache")
        cold = profile_service_parallel(service, seed=0, workers=1, cache=store)
        return store, cold

    def _warm(self, service, store, fresh_profile_memo):
        fresh_profile_memo()
        stats = ProfileStats()
        warm = profile_service_parallel(
            service, seed=0, workers=1, cache=store, stats=stats
        )
        return warm, stats

    def test_load_point(self, service, tmp_path, fresh_profile_memo):
        store, cold = self._cold(service, tmp_path)
        (art_key,) = store.keys_of(RhythmArtifact)
        store._path(art_key).unlink()  # reach the sub-profile lookups
        key, other = store.keys_of(LoadPointProfile)[:2]
        good = store.get(key)
        # Another load's point is the wrong entry for this key.
        store.put(key, store.get(other))
        warm, stats = self._warm(service, store, fresh_profile_memo)
        assert warm == cold
        assert stats.sweep_executed == 1
        assert stats.sweep.hits == stats.sweep.total - 1
        assert stats.slack_executed == 0
        assert store.get(key) == good

    def test_slacklimit_walk(self, service, tmp_path, fresh_profile_memo):
        store, cold = self._cold(service, tmp_path)
        (art_key,) = store.keys_of(RhythmArtifact)
        store._path(art_key).unlink()
        key = store.keys_of(float)[0]
        good = store.get(key)
        store.put(key, str(good))
        warm, stats = self._warm(service, store, fresh_profile_memo)
        assert warm == cold
        assert stats.sweep_executed == 0
        assert stats.slack_executed == 1
        assert stats.slack.hits == stats.slack.total - 1
        assert store.get(key) == good

    def test_whole_artifact(self, service, tmp_path, fresh_profile_memo):
        store, cold = self._cold(service, tmp_path)
        (art_key,) = store.keys_of(RhythmArtifact)
        store.put(art_key, replace(cold, service_name="another-service"))
        warm, stats = self._warm(service, store, fresh_profile_memo)
        assert warm == cold
        assert stats.artifact_cache_hits == 0
        assert stats.sweep_executed == 0 and stats.slack_executed == 0
        assert stats.sweep.hits == stats.sweep.total > 0
        assert store.get(art_key) == cold


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
