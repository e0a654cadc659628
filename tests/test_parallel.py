"""Parallel grid engine, streaming kernels, and their determinism.

Covers the issue's acceptance criteria:

- same-seed serial and parallel grid runs produce bit-identical
  ``ColocationResult`` fingerprints (down to individual tick samples),
- Welford streaming statistics match the naive two-pass computation.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.experiments.colocation as colocation_module
import repro.parallel.grid as grid_module
import repro.sim.kernel as kernel_module
from repro.baselines.heracles import heracles_controllers
from repro.bejobs.catalog import evaluation_be_jobs
from repro.errors import ExperimentError, ProfilingError
from repro.experiments.colocation import ColocationConfig, ColocationExperiment
from repro.experiments.runner import CellComparison, get_rhythm
from repro.faults.spec import FaultSchedule
from repro.loadgen.patterns import StepLoad
from repro.metrics.collector import COUNT_COLUMNS, FLOAT_COLUMNS, MachineMetrics
from repro.metrics.streaming import WelfordAccumulator
from repro.parallel import (
    GridCell,
    RhythmArtifact,
    artifact_for,
    colocation_fingerprint,
    comparison_fingerprint,
    derive_cell_seed,
    resolve_workers,
    run_comparison_grid,
)
from repro.parallel.profile import clear_profile_memo, profile_services_parallel
from repro.sim.kernel import FleetColocationKernel
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import ecommerce_service, redis_service
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


#: A storm over every machine of every cell: the faulted config.
FAULTED = ColocationConfig(
    duration_s=20.0,
    sample_cap=150,
    min_samples=50,
    faults=FaultSchedule.generate(3, 20.0, faults_per_minute=9.0),
)


@pytest.fixture(scope="module")
def mixed_grid():
    """Five cells over Redis and the four-Servpod E-commerce service,
    one of them under a non-constant load pattern."""
    redis, shop = redis_service(), ecommerce_service()
    dram, llc = evaluation_be_jobs()[:2]
    cells = [
        GridCell(redis, dram, 0.25, seed=9),
        GridCell(shop, llc, 0.65, seed=10),
        GridCell(
            redis,
            llc,
            0.5,
            seed=11,
            pattern=StepLoad([(0.0, 0.3), (7.0, 0.85), (14.0, 0.5)]),
        ),
        GridCell(shop, dram, 0.45, seed=12),
        GridCell(redis, dram, 0.85, seed=13),
    ]
    artifacts = {
        s.name: artifact_for(s, seed=0, probe_slacklimits=False)
        for s in (redis, shop)
    }
    return cells, artifacts


def _per_experiment(cells, artifacts, config):
    """The oracle: each cell's two simulations, each in its own kernel."""
    fingerprints = []
    for cell in cells:
        rhythm, heracles = CellComparison(
            cell.service,
            artifacts[cell.service.name],
            cell.be_spec,
            cell.load,
            seed=cell.seed,
            config=config,
            pattern=cell.pattern,
        ).experiments()
        fingerprints.append(
            (
                cell.service.name,
                cell.be_spec.name,
                cell.load,
                colocation_fingerprint(FleetColocationKernel([rhythm]).run()[0]),
                colocation_fingerprint(FleetColocationKernel([heracles]).run()[0]),
            )
        )
    return fingerprints


class TestBatchedGridIdentity:
    """A grid's pending cells tick as one fleet per worker chunk; every
    result must equal the cell's simulations run one at a time."""

    @pytest.fixture(scope="class")
    def oracle(self, mixed_grid):
        cells, artifacts = mixed_grid
        return {
            "healthy": _per_experiment(cells, artifacts, FAST),
            "faulted": _per_experiment(cells, artifacts, FAULTED),
        }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", ["healthy", "faulted"])
    def test_matches_per_experiment_runs(self, mixed_grid, oracle, name, workers):
        cells, artifacts = mixed_grid
        config = FAST if name == "healthy" else FAULTED
        results = run_comparison_grid(
            cells, config=config, workers=workers, artifacts=artifacts
        )
        assert [comparison_fingerprint(r) for r in results] == oracle[name]

    def test_scalar_kernel_matches_batched_oracle(
        self, mixed_grid, oracle, monkeypatch
    ):
        cells, artifacts = mixed_grid
        monkeypatch.setenv("RHYTHM_KERNEL", "scalar")
        for name, config in (("healthy", FAST), ("faulted", FAULTED)):
            results = run_comparison_grid(
                cells, config=config, workers=1, artifacts=artifacts
            )
            assert [comparison_fingerprint(r) for r in results] == oracle[name]

    def test_vec_tick_path_matches(self, mixed_grid, oracle, monkeypatch):
        # The batch is 28 rows, under the small-path cap; force the vec
        # tick that grids above 32 rows take.
        cells, artifacts = mixed_grid
        monkeypatch.setattr(kernel_module, "_SMALL_FLEET_MACHINES", 0)
        for name, config in (("healthy", FAST), ("faulted", FAULTED)):
            results = run_comparison_grid(
                cells, config=config, workers=1, artifacts=artifacts
            )
            assert [comparison_fingerprint(r) for r in results] == oracle[name]

    def test_inline_runs_every_pending_cell_in_one_batch(
        self, mixed_grid, monkeypatch
    ):
        cells, artifacts = mixed_grid
        batches = []
        real = grid_module._execute_task

        def spy(tasks):
            batches.append([task.cell for task in tasks])
            return real(tasks)

        kernels = []

        class CountingKernel(FleetColocationKernel):
            def __init__(self, experiments, *args, **kwargs):
                kernels.append(len(experiments))
                super().__init__(experiments, *args, **kwargs)

        monkeypatch.setattr(grid_module, "_execute_task", spy)
        monkeypatch.setattr(colocation_module, "FleetColocationKernel", CountingKernel)
        run_comparison_grid(cells, config=FAST, workers=1, artifacts=artifacts)
        assert batches == [cells]
        assert kernels == [2 * len(cells)]  # one kernel, both systems

    # Machine rows per cell are 2, 4, 2, 4, 2: each cut lands nearest an
    # equal share of the 14 rows.
    @pytest.mark.parametrize(
        "workers, sizes", [(2, [2, 3]), (3, [2, 1, 2]), (8, [1] * 5)]
    )
    def test_pool_ships_one_envelope_per_contiguous_chunk(
        self, mixed_grid, monkeypatch, workers, sizes
    ):
        cells, artifacts = mixed_grid
        shipped = []
        real = grid_module.run_envelopes

        def spy(envelopes, n_workers):
            shipped.extend(env.args[0] for env in envelopes)
            return real(envelopes, n_workers)

        monkeypatch.setattr(grid_module, "run_envelopes", spy)
        run_comparison_grid(
            cells, config=FAST, workers=workers, artifacts=artifacts
        )
        assert [len(chunk) for chunk in shipped] == sizes
        assert [cell for chunk in shipped for cell in chunk] == cells


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
        metrics = MachineMetrics("m", "pod", total_cores=8.0, sla_ms=10.0)
        floats = np.zeros((len(FLOAT_COLUMNS), 3))
        floats[FLOAT_COLUMNS.index("tail_ms")] = [4.5, 0.0, 12.0]
        counts = np.zeros((len(COUNT_COLUMNS), 3), dtype=np.int64)
        metrics.set_columns(floats, counts, ["AllowBEGrowth"] * 3)
        tails = metrics.window_tails
        assert isinstance(tails, tuple)
        assert tails == (4.5, 12.0)
        assert all(type(tail) is float for tail in tails)

    def test_idle_windows_skipped_on_both_kernels(self):
        # The zero-load step draws no samples, so its windows never close.
        service = redis_service()
        results = []
        for kernel in ("scalar", "batched"):
            results.append(
                ColocationExperiment(
                    service,
                    heracles_controllers(service),
                    evaluation_be_jobs()[:1],
                    StepLoad([(0.0, 0.5), (6.0, 0.0), (12.0, 0.6)]),
                    streams=RandomStreams(7),
                    config=FAST,
                    kernel=kernel,
                ).run()
            )
            for metrics in results[-1].machines.values():
                assert 0 < len(metrics.window_tails) < len(metrics.actions)
                assert metrics.worst_tail_ms == max(metrics.window_tails)
        assert colocation_fingerprint(results[0]) == colocation_fingerprint(
            results[1]
        )
