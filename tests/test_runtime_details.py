"""Tests for runtime-loop internals: DVFS engagement, memory growth,
network shaping, and determinism of the full control loop."""

from __future__ import annotations

import pytest

from repro.bejobs.catalog import CPU_STRESS, IPERF, STREAM_DRAM
from repro.cluster.machine import BE_DOMAIN, MachineSpec
from repro.core.top_controller import ControllerThresholds, TopController
from repro.experiments.colocation import ColocationConfig, ColocationExperiment
from repro.loadgen.patterns import ConstantLoad
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.errors import SimulationError

from conftest import make_tiny_service

FAST = ColocationConfig(duration_s=60.0, sample_cap=200, min_samples=50)


def permissive(spec):
    return {
        pod: TopController(
            pod, ControllerThresholds(loadlimit=0.95, slacklimit=0.05), spec.sla_ms
        )
        for pod in spec.servpod_names
    }


def run(spec, be, config=FAST, load=0.3, seed=0):
    return ColocationExperiment(
        spec, permissive(spec), [be], ConstantLoad(load),
        RandomStreams(seed), config,
    )


class TestFrequencySubcontrollerInLoop:
    def test_dvfs_throttles_be_on_hot_machine(self, tiny_service):
        """A low-TDP machine packed with busy cores triggers the power cap."""
        config = ColocationConfig(
            duration_s=60.0, sample_cap=200, min_samples=50,
            base_machine=MachineSpec(tdp_watts=70.0),
        )
        experiment = run(tiny_service, CPU_STRESS, config=config, load=0.6)
        experiment.run()
        frequencies = [
            m.dvfs.frequency(BE_DOMAIN) for m in experiment.deployment.cluster
        ]
        assert min(frequencies) < 2000  # stepped down at least once

    def test_cool_machine_stays_at_max(self, tiny_service):
        config = ColocationConfig(
            duration_s=60.0, sample_cap=200, min_samples=50,
            base_machine=MachineSpec(tdp_watts=1000.0),
        )
        experiment = run(tiny_service, CPU_STRESS, config=config, load=0.3)
        experiment.run()
        for machine in experiment.deployment.cluster:
            assert machine.dvfs.frequency(BE_DOMAIN) == 2000


class TestMemorySubcontrollerInLoop:
    def test_be_memory_grows_toward_working_set(self, tiny_service):
        experiment = run(tiny_service, STREAM_DRAM)  # wants 4 GB/job
        experiment.run()
        machine = experiment.deployment.servpod("back").machine
        allocations = list(machine.be_allocations())
        assert allocations, "no BE jobs placed"
        assert any(a.memory_gb > 2.0 for a in allocations)


class TestNetworkSubcontrollerInLoop:
    def test_nic_cap_follows_lc_traffic(self, tiny_service):
        experiment = run(tiny_service, IPERF, load=0.8)
        experiment.run()
        machine = experiment.deployment.servpod("front").machine
        # front's peak_net_gbps=1.0 at load 0.8 -> cap = 10 - 1.2*0.8
        assert machine.nic.be_cap_gbps == pytest.approx(
            10.0 - 1.2 * machine.nic.lc_gbps
        )
        assert machine.nic.lc_gbps > 0.5


class TestLoopDeterminismAndAccounting:
    def test_full_state_reproducible(self, tiny_service):
        def snapshot(seed):
            e = run(tiny_service, STREAM_DRAM, seed=seed)
            result = e.run()
            machine = e.deployment.servpod("back").machine
            return (
                result.be_throughput,
                result.worst_tail_ms,
                machine.be_total_cores,
                machine.be_total_llc_ways,
                tuple(s.action for s in result.machine("back").samples),
            )

        assert snapshot(3) == snapshot(3)
        assert snapshot(3) != snapshot(4)

    def test_tick_count_matches_duration(self, tiny_service):
        experiment = run(tiny_service, CPU_STRESS)
        result = experiment.run()
        assert len(result.machine("front").samples) == 30  # 60 s / 2 s

    def test_emu_accounting_consistent(self, tiny_service):
        experiment = run(tiny_service, CPU_STRESS, load=0.4)
        result = experiment.run()
        assert result.emu == pytest.approx(
            result.lc_load_mean + result.be_throughput
        )

    def test_suspended_jobs_hold_cores_but_not_progress(self, tiny_service):
        controllers = {
            pod: TopController(
                pod, ControllerThresholds(loadlimit=0.2, slacklimit=0.05),
                tiny_service.sla_ms,
            )
            for pod in tiny_service.servpod_names
        }
        experiment = ColocationExperiment(
            tiny_service, controllers, [CPU_STRESS], ConstantLoad(0.5),
            RandomStreams(0), FAST,
        )
        result = experiment.run()
        # load 0.5 > loadlimit 0.2 every tick -> jobs suspended whenever
        # placed; zero completed work.
        assert result.be_throughput == 0.0


class TestEngineGuards:
    def test_run_not_reentrant(self):
        engine = Engine()

        def recurse(t):
            with pytest.raises(SimulationError):
                engine.run(until=10.0)

        engine.at(1.0, recurse)
        engine.run(until=2.0)
