"""Differential tests pinning the batched kernel to the scalar reference.

The batched structure-of-arrays kernel (:mod:`repro.sim.kernel`) is only
allowed to exist because it is *bit-identical* to the scalar object
world: same ``result_digest`` (the ``ColocationResult`` down to
individual tick samples, and the final state of every RNG stream), in
the parent process and in fork- and spawn-started children, with and
without fault injection.
These tests are that contract. They also pin the cache-key consequences:
because the kernels are provably identical, grid-cell cache keys are
deliberately shared across kernels (``kernel`` is runtime dispatch, not
a result coordinate), and the code-version salt was bumped so entries
written before the identity pin can never be served.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.baselines.heracles import HeraclesPolicy
from repro.bejobs.catalog import evaluation_be_jobs
from repro.cache.keys import CODE_VERSION_SALT
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.colocation import ColocationConfig
from repro.experiments.runner import kernel_identity_probe
from repro.parallel import artifact_for
from repro.parallel.grid import GridCell, _CellTask, cell_cache_key
from repro.sim.kernel import KERNEL_ENV_VAR, KERNELS, resolve_kernel
from repro.sim.rng import RandomStreams
from repro.workloads.queueing import QueueingComponent

from conftest import make_tiny_service


class TestResolveKernel:
    def test_default_is_batched(self, monkeypatch):
        # The batched kernel is bit-identical to scalar (tests below) and
        # ~22x faster, so it is the default; RHYTHM_KERNEL=scalar is the
        # escape hatch back to the reference implementation.
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel() == "batched"
        assert resolve_kernel(None) == "batched"
        assert resolve_kernel("") == "batched"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "batched")
        assert resolve_kernel("scalar") == "scalar"

    def test_env_var_honoured(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "scalar")
        assert resolve_kernel() == "scalar"

    def test_normalisation(self):
        assert resolve_kernel("  Batched ") == "batched"

    @pytest.mark.parametrize("bad", ["vectorised", "fast", "BATCHEDX"])
    def test_unknown_kernel_rejected(self, bad, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_kernel(bad)
        monkeypatch.setenv(KERNEL_ENV_VAR, bad)
        with pytest.raises(ConfigurationError):
            resolve_kernel()

    def test_registry(self):
        assert KERNELS == ("scalar", "batched")


class TestColocationIdentity:
    """Scalar and batched runs must agree bit for bit, RNG state and all."""

    @pytest.mark.parametrize("pattern", ["constant", "step", "sweep"])
    def test_bit_identical_across_patterns(self, pattern):
        scalar = kernel_identity_probe("scalar", seed=3, pattern_name=pattern)
        batched = kernel_identity_probe("batched", seed=3, pattern_name=pattern)
        # The digest covers the whole result and the final RNG states.
        assert scalar == batched, "result digests diverged"

    def test_bit_identical_under_faults(self):
        scalar = kernel_identity_probe(
            "scalar", seed=9, pattern_name="diurnal", with_faults=True
        )
        batched = kernel_identity_probe(
            "batched", seed=9, pattern_name="diurnal", with_faults=True
        )
        assert scalar == batched

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ExperimentError):
            kernel_identity_probe("scalar", pattern_name="tidal")

    def test_fork_subprocess_identity(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                kernel_identity_probe,
                ("batched",),
                {"seed": 5, "pattern_name": "step"},
            )
        parent = kernel_identity_probe("scalar", seed=5, pattern_name="step")
        assert parent == child

    @pytest.mark.slow
    def test_spawn_subprocess_identity(self):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                kernel_identity_probe,
                ("batched",),
                {"seed": 5, "pattern_name": "constant", "with_faults": True},
            )
        parent = kernel_identity_probe(
            "scalar", seed=5, pattern_name="constant", with_faults=True
        )
        assert parent == child


class TestQueueingIdentity:
    def _run(self, kernel):
        component = QueueingComponent(2.0, 0.3, workers=8)
        streams = RandomStreams(11)
        stats = component.simulate(
            0.7 * component.capacity_qps, 20.0, streams, kernel=kernel
        )
        states = tuple(
            (name, repr(streams._streams[name].bit_generator.state))
            for name in sorted(streams._streams)
        )
        return stats, states

    def test_stats_and_rng_bit_identical(self):
        scalar_stats, scalar_states = self._run("scalar")
        batched_stats, batched_states = self._run("batched")
        assert scalar_stats == batched_stats
        assert scalar_states == batched_states
        assert batched_stats.events > 0


@pytest.fixture(scope="module")
def tiny_artifact():
    service = make_tiny_service()
    return service, artifact_for(service, seed=0, probe_slacklimits=False)


class TestCacheKeySharing:
    """Kernels share grid-cell cache keys — valid only because the
    identity tests above prove the outputs are interchangeable."""

    def _task(self, service, artifact):
        return _CellTask(
            cell=GridCell(service, evaluation_be_jobs()[0], 0.45, seed=7),
            artifact=artifact,
            heracles_policy=HeraclesPolicy(),
            config=ColocationConfig(duration_s=20.0),
        )

    def test_kernel_is_not_a_config_coordinate(self):
        # Runtime dispatch must never leak into the hashed config, or
        # scalar- and batched-produced cells would stop sharing entries.
        assert "kernel" not in ColocationConfig.__dataclass_fields__

    def test_cell_key_invariant_across_kernels(
        self, tiny_artifact, monkeypatch
    ):
        service, artifact = tiny_artifact
        keys = {}
        for kernel in KERNELS:
            monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
            keys[kernel] = cell_cache_key(self._task(service, artifact))
        assert keys["scalar"] == keys["batched"]

    def test_salt_bumped_past_pre_identity_entries(self):
        # Entries written before the identity pin (salt :3 and earlier)
        # predate result-affecting engine/vectorisation changes and must
        # never be served to either kernel.
        tag = CODE_VERSION_SALT.rsplit(":", 1)[-1]
        assert tag.isdigit() and int(tag) >= 4


class TestPercentileFastPath:
    """The partition-based percentile must be bitwise np.percentile."""

    def _cases(self):
        import numpy as np

        rng = np.random.default_rng(1234)
        sizes = [1, 2, 3, 5, 17, 100, 800, 1023]
        pcts = [0.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0]
        for n in sizes:
            scale = float(rng.uniform(1e-6, 1e6))
            values = rng.uniform(0.0, scale, size=n)
            for pct in pcts:
                yield values, pct

    def test_percentile_linear_matches_numpy_bitwise(self):
        import numpy as np

        from repro.sim.kernel import percentile_linear

        for values, pct in self._cases():
            expected = float(np.percentile(values, pct))
            assert percentile_linear(values.copy(), pct) == expected

    def test_percentile_linear_rows_matches_numpy_bitwise(self):
        import numpy as np

        from repro.sim.kernel import percentile_linear_rows

        rng = np.random.default_rng(77)
        for n in (1, 2, 7, 64, 501):
            stack = rng.uniform(0.0, 100.0, size=(5, n))
            for pct in (0.0, 50.0, 99.0, 100.0):
                expected = [
                    float(np.percentile(stack[row], pct))
                    for row in range(stack.shape[0])
                ]
                got = percentile_linear_rows(stack.copy(), pct)
                assert got == expected


class TestSmallFleetPathEquivalence:
    """The python small-fleet tick and the vectorised tick are one path
    semantically: forcing the vectorised branch on a small fleet must
    reproduce the small path's digests bit-identically."""

    def test_small_and_vectorised_ticks_agree(self, monkeypatch):
        from repro.experiments.fleet import fleet_identity_probe
        import repro.sim.kernel as kernel_mod

        small = fleet_identity_probe("fleet", n_instances=3, duration_s=40.0)
        monkeypatch.setattr(kernel_mod, "_SMALL_FLEET_MACHINES", 0)
        forced_vec = fleet_identity_probe(
            "fleet", n_instances=3, duration_s=40.0
        )
        assert forced_vec == small

    def test_vectorised_path_still_matches_scalar_reference(self, monkeypatch):
        from repro.experiments.fleet import fleet_identity_probe
        import repro.sim.kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "_SMALL_FLEET_MACHINES", 0)
        assert fleet_identity_probe(
            "fleet", n_instances=2, duration_s=30.0
        ) == fleet_identity_probe("reference", n_instances=2, duration_s=30.0)


class TestLastTickKill:
    """A STOP_BE on the last tick must not resurrect killed work.

    The fleet kernel flushes SoA progress into the ``BeJob`` objects
    before every apply; a row the last tick's apply dirtied was already
    flushed, and its jobs may since have been killed (``BeJob.kill``
    floors their work). These cells end on such a kill: the fleet
    kernel used to write the pre-kill progress back at finalize and
    report BE throughput the scalar engine and the bake-off do not.
    """

    CASES = [(2, "heracles"), (10, "predictive")]

    @staticmethod
    def _cell(seed, member_name):
        from repro.experiments.bakeoff import (
            BakeoffConfig,
            bakeoff_scenario_grid,
            heracles_member,
            predictive_member,
        )

        member = (
            heracles_member("Redis")
            if member_name == "heracles"
            else predictive_member()
        )
        scenario = bakeoff_scenario_grid(
            service="Redis",
            loads=(0.85,),
            be_jobs=("stream-llc",),
            duration_s=600.0,
            seed=seed,
        )[0]
        return scenario, member, BakeoffConfig(duration_s=600.0)

    @pytest.mark.parametrize("seed,member_name", CASES)
    def test_default_kernel_matches_scalar(self, seed, member_name, monkeypatch):
        from repro.experiments.bakeoff import run_member_reference

        scenario, member, config = self._cell(seed, member_name)
        monkeypatch.setenv(KERNEL_ENV_VAR, "scalar")
        scalar = run_member_reference(scenario, member, config)
        monkeypatch.delenv(KERNEL_ENV_VAR)
        fast = run_member_reference(scenario, member, config)
        assert fast.digest == scalar.digest
        assert fast.be_throughput == scalar.be_throughput == 0.0

    @pytest.mark.parametrize("seed,member_name", CASES)
    def test_bakeoff_member_matches_solo(self, seed, member_name, monkeypatch):
        from repro.experiments.bakeoff import run_bakeoff, run_member_reference

        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        scenario, member, config = self._cell(seed, member_name)
        cell = run_bakeoff([scenario], [member], config=config).cells[0]
        assert cell.digest == run_member_reference(scenario, member, config).digest
