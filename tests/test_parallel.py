"""Parallel grid engine, streaming kernels, and their determinism.

Covers the issue's acceptance criteria:

- same-seed serial and parallel grid runs produce bit-identical
  ``ColocationResult`` fingerprints (down to individual tick samples),
- ``HistogramTailTracker`` quantile error vs the exact percentile is
  bounded on heavy-tailed samples,
- Welford streaming statistics match the naive two-pass computation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bejobs.catalog import evaluation_be_jobs
from repro.errors import ConfigurationError, ExperimentError, ProfilingError
from repro.experiments.colocation import ColocationConfig
from repro.experiments.runner import get_rhythm
from repro.metrics.percentile import (
    HistogramTailTracker,
    WindowedTailTracker,
    percentile,
)
from repro.metrics.streaming import WelfordAccumulator
from repro.parallel import (
    GridCell,
    RhythmArtifact,
    artifact_for,
    comparison_fingerprint,
    derive_cell_seed,
    resolve_workers,
    run_comparison_grid,
)
from repro.parallel.profile import clear_profile_memo, profile_services_parallel
from conftest import make_tiny_service


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_profile_memo()
    yield
    clear_profile_memo()


@pytest.fixture(scope="module")
def tiny_artifact():
    service = make_tiny_service()
    return service, artifact_for(service, seed=0, probe_slacklimits=False)


FAST = ColocationConfig(duration_s=20.0, sample_cap=150, min_samples=50)


class TestRhythmArtifact:
    def test_matches_live_pipeline(self, tiny_artifact):
        service, artifact = tiny_artifact
        rhythm = get_rhythm(service, seed=0, probe_slacklimits=False)
        assert artifact.service_name == service.name
        assert artifact.loadlimit_map() == rhythm.loadlimits()
        assert artifact.slacklimit_map() == rhythm.slacklimits()
        assert set(artifact.contribution_map()) == set(service.servpod_names)

    def test_controllers_equal_rhythm_controllers(self, tiny_artifact):
        service, artifact = tiny_artifact
        rhythm = get_rhythm(service, seed=0, probe_slacklimits=False)
        built = artifact.controllers()
        live = rhythm.controllers()
        assert set(built) == set(live)
        for pod in built:
            assert built[pod].thresholds == live[pod].thresholds
            assert built[pod].sla_ms == live[pod].sla_ms

    def test_pickle_roundtrip(self, tiny_artifact):
        _, artifact = tiny_artifact
        clone = pickle.loads(pickle.dumps(artifact))
        assert clone == artifact
        assert clone.controllers().keys() == artifact.controllers().keys()

    def test_rejects_incomplete_tables(self, tiny_artifact):
        service, artifact = tiny_artifact
        with pytest.raises(ProfilingError):
            RhythmArtifact(
                service_name=service.name,
                sla_ms=service.sla_ms,
                servpod_names=tuple(service.servpod_names),
                loadlimits=artifact.loadlimits[:1],
                slacklimits=artifact.slacklimits,
                contributions=artifact.contributions,
            )

    def test_unknown_servpod_rejected(self, tiny_artifact):
        _, artifact = tiny_artifact
        with pytest.raises(ProfilingError):
            artifact.thresholds("nonexistent")


class TestParallelGridDeterminism:
    def _cells(self, service):
        return [
            GridCell(service, be, load, seed=7)
            for be in evaluation_be_jobs()[:2]
            for load in (0.25, 0.65)
        ]

    def test_pool_matches_serial_bit_identically(self, tiny_artifact):
        service, artifact = tiny_artifact
        cells = self._cells(service)
        artifacts = {service.name: artifact}
        serial = run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts
        )
        pooled = run_comparison_grid(
            cells, config=FAST, workers=2, artifacts=artifacts
        )
        assert [comparison_fingerprint(r) for r in serial] == [
            comparison_fingerprint(r) for r in pooled
        ]

    def test_results_in_input_order(self, tiny_artifact):
        service, artifact = tiny_artifact
        cells = self._cells(service)
        results = run_comparison_grid(
            cells, config=FAST, workers=2, artifacts={service.name: artifact}
        )
        assert [(r.be_job, r.load) for r in results] == [
            (c.be_spec.name, c.load) for c in cells
        ]

    def test_profiles_once_in_parent(self, tiny_artifact):
        service, _ = tiny_artifact
        cells = self._cells(service)
        artifacts = profile_services_parallel(cells, probe_slacklimits=False)
        assert set(artifacts) == {service.name}

    def test_empty_grid(self):
        assert run_comparison_grid([]) == []

    def test_missing_artifact_rejected(self, tiny_artifact):
        service, _ = tiny_artifact
        with pytest.raises(ExperimentError):
            run_comparison_grid(
                self._cells(service), config=FAST, workers=1, artifacts={}
            )


class TestCellSeeds:
    def test_deterministic(self):
        a = derive_cell_seed(0, "Redis", "stream-dram", 0.25)
        b = derive_cell_seed(0, "Redis", "stream-dram", 0.25)
        assert a == b and a >= 0

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_cell_seed(0, svc, be, load)
            for svc in ("Redis", "Solr")
            for be in ("stream-dram", "CPU-stress")
            for load in (0.25, 0.65)
        }
        assert len(seeds) == 8

    def test_root_seed_matters(self):
        assert derive_cell_seed(0, "Redis", "x", 0.5) != derive_cell_seed(
            1, "Redis", "x", 0.5
        )


class TestResolveWorkers:
    def test_explicit_wins(self):
        assert resolve_workers(3) == 3

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RHYTHM_WORKERS", "5")
        assert resolve_workers() == 5

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("RHYTHM_WORKERS", "many")
        with pytest.raises(ExperimentError):
            resolve_workers()


class TestHistogramTailTracker:
    def test_bounded_error_on_heavy_tail(self):
        rng = np.random.default_rng(42)
        # Lognormal with sigma=1.5: a genuinely heavy upper tail.
        samples = rng.lognormal(mean=3.0, sigma=1.5, size=20_000)
        tracker = HistogramTailTracker(pct=99.0)
        tracker.add_samples(samples)
        estimate = tracker.roll_window()
        exact = percentile(samples, 99.0)
        # Nearest-rank vs interpolated percentile differ by at most one
        # sample's spacing; allow twice the geometric bin bound.
        assert estimate == pytest.approx(exact, rel=2 * tracker.error_bound + 0.01)

    def test_error_bound_matches_geometry(self):
        tracker = HistogramTailTracker(lo_ms=1.0, hi_ms=100.0, bins=100)
        rng = np.random.default_rng(7)
        samples = rng.uniform(1.0, 100.0, size=5_000)
        tracker.add_samples(samples)
        estimate = tracker.roll_window()
        exact = percentile(samples, 99.0)
        assert abs(estimate - exact) / exact <= 2 * tracker.error_bound + 0.01

    def test_scalar_and_batch_insert_agree(self):
        rng = np.random.default_rng(3)
        samples = rng.lognormal(2.0, 1.0, size=500)
        a = HistogramTailTracker()
        b = HistogramTailTracker()
        a.add_samples(samples)
        for v in samples:
            b.add(v)
        assert a.roll_window() == pytest.approx(b.roll_window())

    def test_window_api_mirrors_windowed_tracker(self):
        tracker = HistogramTailTracker(pct=99.0)
        assert tracker.roll_window() is None
        tracker.add_samples([10.0] * 100)
        first = tracker.roll_window()
        assert first == pytest.approx(10.0, rel=tracker.error_bound + 1e-6)
        tracker.add_samples([100.0] * 100)
        second = tracker.roll_window()
        assert tracker.current_tail == second
        assert tracker.worst_tail == max(first, second)
        assert tracker.window_tails == (first, second)
        assert tracker.violation_count(first + 1e-9) == 1

    def test_overflow_reports_window_max(self):
        tracker = HistogramTailTracker(lo_ms=1.0, hi_ms=10.0, bins=8)
        tracker.add_samples([5.0] * 10 + [5000.0] * 90)
        assert tracker.roll_window() == pytest.approx(5000.0)

    def test_record_window_tail_o1_path(self):
        tracker = HistogramTailTracker()
        tracker.record_window_tail(12.5)
        assert tracker.worst_tail == 12.5
        assert tracker.window_tails == (12.5,)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HistogramTailTracker(pct=0.0)
        with pytest.raises(ConfigurationError):
            HistogramTailTracker(lo_ms=5.0, hi_ms=1.0)
        with pytest.raises(ConfigurationError):
            HistogramTailTracker(bins=1)


class TestWelford:
    def test_matches_two_pass(self):
        rng = np.random.default_rng(11)
        values = rng.lognormal(1.0, 0.8, size=4_097)
        acc = WelfordAccumulator()
        for v in values:
            acc.add(v)
        mean = float(np.mean(values))
        var = float(np.var(values, ddof=1))
        assert acc.count == values.size
        assert acc.mean == pytest.approx(mean, rel=1e-12)
        assert acc.variance() == pytest.approx(var, rel=1e-9)
        assert acc.std() == pytest.approx(np.std(values, ddof=1), rel=1e-9)

    def test_add_many_matches_add_loop(self):
        rng = np.random.default_rng(12)
        values = rng.normal(50.0, 9.0, size=1_000)
        a, b = WelfordAccumulator(), WelfordAccumulator()
        a.add_many(values)
        for v in values:
            b.add(v)
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.variance() == pytest.approx(b.variance(), rel=1e-9)

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(13)
        left = rng.uniform(0, 10, size=300)
        right = rng.uniform(5, 50, size=700)
        a, b = WelfordAccumulator(), WelfordAccumulator()
        a.add_many(left)
        b.add_many(right)
        a.merge(b)
        both = np.concatenate([left, right])
        assert a.count == 1000
        assert a.mean == pytest.approx(float(np.mean(both)), rel=1e-12)
        assert a.variance() == pytest.approx(float(np.var(both, ddof=1)), rel=1e-9)

    def test_degenerate_counts(self):
        acc = WelfordAccumulator()
        assert acc.mean == 0.0 and acc.variance() == 0.0 and len(acc) == 0
        acc.add(4.0)
        assert acc.mean == 4.0 and acc.variance() == 0.0
        acc.add_many([])
        assert acc.count == 1


class TestHotPathSatellites:
    def test_window_tails_returns_tuple(self):
        tracker = WindowedTailTracker()
        tracker.add_samples([1.0, 2.0, 3.0])
        tracker.roll_window()
        tails = tracker.window_tails
        assert isinstance(tails, tuple)

    def test_record_window_tail_matches_roll(self):
        samples = [5.0, 9.0, 1.0, 22.0]
        a, b = WindowedTailTracker(pct=99.0), WindowedTailTracker(pct=99.0)
        a.add_samples(samples)
        rolled = a.roll_window()
        b.record_window_tail(percentile(samples, 99.0))
        assert b.window_tails == (rolled,)
        assert b.worst_tail == a.worst_tail
