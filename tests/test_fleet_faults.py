"""Fault injection inside the fleet kernel, every fault kind.

``FleetColocationKernel`` carries fault injection as per-machine state
on both its tick paths (the per-machine python tick for small fleets,
the whole-array tick for large ones). These tests pin both against the
scalar engine on a mixed healthy-plus-faulted fleet with hand-placed
faults of every kind: overlapping windows on one machine, faults that
shrink running BE jobs, and faults still open at the last tick. Equal
per-instance digests mean equal results, metrics and final RNG states;
the final machine state (DVFS, NIC, free cores and ways, live jobs and
their progress) must match too.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.sim.kernel as kernel_mod
from repro.cluster.machine import BE_DOMAIN, LC_DOMAIN, Machine
from repro.core.subcontrollers import FrequencySubcontroller
from repro.experiments.fleet import (
    FleetConfig,
    FleetExperiment,
    FleetInstanceSpec,
    PodPolicy,
    _build_experiment,
    alibaba_fleet,
    instance_digest,
)
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.loadgen.patterns import ConstantLoad, StepLoad
from repro.sim.kernel import FleetColocationKernel
from repro.workloads.catalog import lc_service_spec

DURATION_S = 60.0
SATURATED_S = 140.0


def _spec(kind, at_s, duration_s, magnitude, target="*"):
    return FaultSpec(
        kind=kind,
        target=target,
        at_s=at_s,
        duration_s=duration_s,
        magnitude=magnitude,
    )


#: Instance index -> hand-placed schedule. Instances 0 and 5 stay
#: healthy. Redis runs two Servpods, on machines "master" and "slave".
SCHEDULES = {
    # Offlined cores, a NIC collapse overlapping them on one machine,
    # and lost LLC ways still open at the last tick.
    1: FaultSchedule(
        seed=1,
        faults=(
            _spec(FaultKind.CORE_OFFLINE, 20.0, 24.0, 0.9),
            _spec(FaultKind.NIC_DEGRADE, 26.0, 12.0, 0.97, target="master"),
            _spec(FaultKind.LLC_WAY_LOSS, 30.0, 60.0, 0.5),
        ),
    ),
    # Two overlapping DVFS caps on one machine (the tighter one wins
    # while both are open) and a stall still open at the last tick.
    2: FaultSchedule(
        seed=2,
        faults=(
            _spec(FaultKind.DVFS_CAP, 8.0, 30.0, 0.4, target="slave"),
            _spec(FaultKind.DVFS_CAP, 14.0, 12.0, 0.9, target="slave"),
            _spec(FaultKind.MACHINE_STALL, 40.0, 40.0, 0.3),
        ),
    ),
    # A late core offline, hard enough to shrink BE jobs that have
    # grown past one core each.
    3: FaultSchedule(
        seed=3,
        faults=(_spec(FaultKind.CORE_OFFLINE, 50.0, 6.0, 0.9),),
    ),
    # Every kind on every machine, staggered; the cap and the NIC
    # degradation are still open at the last tick.
    4: FaultSchedule(
        seed=4,
        faults=(
            _spec(FaultKind.MACHINE_STALL, 4.0, 6.0, 0.8),
            _spec(FaultKind.CORE_OFFLINE, 10.0, 20.0, 0.6),
            _spec(FaultKind.LLC_WAY_LOSS, 12.0, 10.0, 0.9),
            _spec(FaultKind.NIC_DEGRADE, 16.0, 60.0, 0.6),
            _spec(FaultKind.DVFS_CAP, 24.0, 60.0, 0.7),
        ),
    ),
}


def mixed_fleet(shards: int = 1, faults: bool = True):
    config = FleetConfig(
        duration_s=DURATION_S, shards=shards, workers=1, zone_size=2
    )
    fleet = alibaba_fleet(
        12, policy="heracles", duration_s=DURATION_S, seed=3, config=config
    )
    if faults:
        for index, schedule in SCHEDULES.items():
            fleet.instances[index] = dataclasses.replace(
                fleet.instances[index], faults=schedule
            )
    return fleet


def saturated_fleet(shards: int = 1, faults: bool = True):
    """Lenient controllers growing BE work until the machines are full.

    Once full, ALLOW is a memoized no-op and BE progress stays in the
    kernel's rows between applies, so a fault transition that frees
    capacity or shrinks jobs must invalidate both. ``iperf`` makes the
    BE network share bind under a degraded NIC.
    """
    service = lc_service_spec("Redis")
    policies = tuple(
        sorted(
            (pod, PodPolicy(loadlimit=1.0, slacklimit=0.01))
            for pod in service.servpod_names
        )
    )
    schedules = [
        None,
        FaultSchedule(
            seed=11,
            faults=(
                _spec(FaultKind.CORE_OFFLINE, 90.0, 20.0, 0.5),
                _spec(FaultKind.LLC_WAY_LOSS, 100.0, 30.0, 0.3),
            ),
        ),
        FaultSchedule(
            seed=12,
            faults=(_spec(FaultKind.NIC_DEGRADE, 40.0, 50.0, 0.9),),
        ),
    ]
    specs = [
        FleetInstanceSpec(
            service="Redis",
            policies=policies,
            be_jobs=("iperf", "CPU-stress"),
            pattern=ConstantLoad(0.3),
            seed=60 + k,
            faults=schedule if faults else None,
        )
        for k, schedule in enumerate(schedules)
    ]
    config = FleetConfig(
        duration_s=SATURATED_S, shards=shards, workers=1, zone_size=1
    )
    return FleetExperiment(specs, config)


def overloaded_fleet(shards: int = 1, faults: bool = True):
    """The saturated fleet, healthy, with its load jumping to 1.0 late.

    Full machines make ALLOW a memoized no-op, so BE progress sits in
    clean kernel rows for many ticks; the overload then drives STOP_BE,
    whose kills floor that progress, so it must reach the jobs first.
    """
    fleet = saturated_fleet(shards, faults=False)
    fleet.instances[:] = [
        dataclasses.replace(spec, pattern=StepLoad([(0.0, 0.3), (110.0, 1.0)]))
        for spec in fleet.instances
    ]
    return fleet


def machine_state(experiment):
    """Observable per-machine hardware and BE state after a run."""
    state = []
    for pod, run in experiment._runs.items():
        machine = experiment.deployment.servpod(pod).machine
        dvfs = machine.dvfs
        nic = machine.nic
        jobs = []
        for job in run.pool.jobs():
            alloc = machine.be_allocation(job.job_id)
            jobs.append(
                (
                    job.job_id,
                    job.state.value,
                    job.normalized_work.hex(),
                    job.running_seconds.hex(),
                    None
                    if alloc is None
                    else (alloc.cores, alloc.llc_ways, alloc.suspended),
                )
            )
        state.append(
            (
                pod,
                dvfs.frequency(BE_DOMAIN),
                dvfs.frequency(LC_DOMAIN),
                dvfs.cap(BE_DOMAIN),
                dvfs.cap(LC_DOMAIN),
                nic.link_scale.hex(),
                nic.be_cap_gbps.hex(),
                nic.lc_gbps.hex(),
                machine.cpuset.free_cores,
                machine.llc.free_ways,
                machine.offlined_cores,
                machine.lost_llc_ways,
                machine.counters.be_kills,
                tuple(jobs),
            )
        )
    return state


#: A power budget the capped LC domain's share decides. Under a DVFS
#: cap the LC cores' dynamic power scales with the capped ratio cubed;
#: the capped machines of :func:`mixed_fleet` draw about 36-45 W, so
#: budgets of 38% / 36% of TDP (43.7 / 41.4 W) sit where that factor
#: flips frequency steps.
TIGHT_POWER = FrequencySubcontroller(cap_fraction=0.38, restore_fraction=0.36)


def _step(power, hi, lo):
    return -1 if power > hi else (1 if power < lo else 0)


def run_both(fleet, frequency=None):
    """(fleet-kernel, scalar-engine) per-instance (digest, state) lists.

    ``frequency`` replaces every instance's frequency subcontroller.
    """
    fast = [_build_experiment(spec, fleet.config) for spec in fleet.instances]
    ref = [_build_experiment(spec, fleet.config) for spec in fleet.instances]
    if frequency is not None:
        for experiment in fast + ref:
            experiment._frequency = frequency
    results = FleetColocationKernel(fast).run()
    ref_results = []
    for experiment in ref:
        experiment.kernel = "scalar"
        ref_results.append(experiment.run())
    return (
        [(instance_digest(e, r), machine_state(e)) for e, r in zip(fast, results)],
        [
            (instance_digest(e, r), machine_state(e))
            for e, r in zip(ref, ref_results)
        ],
    )


@pytest.fixture(params=["small", "vec"])
def tick_path(request, monkeypatch):
    """Force one fleet tick path regardless of the fleet's size."""
    limit = 10**6 if request.param == "small" else 0
    monkeypatch.setattr(kernel_mod, "_SMALL_FLEET_MACHINES", limit)
    return request.param


class TestEveryFaultKind:
    @pytest.mark.parametrize(
        "build", [mixed_fleet, saturated_fleet, overloaded_fleet]
    )
    def test_fleet_kernel_matches_scalar_engine(self, build, tick_path):
        fast, ref = run_both(build())
        if build is overloaded_fleet:
            # Every machine saw STOP_BE kills (state[12] is be_kills).
            assert all(state[12] > 0 for _, machines in ref for state in machines)
        for index, (got, want) in enumerate(zip(fast, ref)):
            assert got[0] == want[0], f"instance {index} digest ({tick_path})"
            assert got[1] == want[1], f"instance {index} machines ({tick_path})"

    def test_capped_lc_power_matches_scalar_engine(self, tick_path, monkeypatch):
        flips = []
        original = FrequencySubcontroller.apply

        def recording(self, machine, lc_busy, be_busy):
            # Would the step differ if LC power ignored the cap?
            power = machine.power_watts(lc_busy, be_busy)
            ratio = machine.dvfs.ratio(LC_DOMAIN)
            uncapped = power + (
                machine.power_model.active_watts_per_core
                * lc_busy
                * (1.0 - ratio**3)
            )
            tdp = machine.power_model.tdp_watts
            hi = self.cap_fraction * tdp
            lo = self.restore_fraction * tdp
            flips.append(_step(power, hi, lo) != _step(uncapped, hi, lo))
            return original(self, machine, lc_busy, be_busy)

        monkeypatch.setattr(FrequencySubcontroller, "apply", recording)
        fast, ref = run_both(mixed_fleet(), frequency=TIGHT_POWER)
        assert sum(flips) > 0
        for index, (got, want) in enumerate(zip(fast, ref)):
            assert got[0] == want[0], f"instance {index} digest ({tick_path})"
            assert got[1] == want[1], f"instance {index} machines ({tick_path})"

    def test_faults_change_exactly_the_faulted_instances(self):
        faulted = mixed_fleet().run()
        healthy = mixed_fleet(faults=False).run()
        changed = {
            s.index
            for s, h in zip(faulted.instances, healthy.instances)
            if s.digest != h.digest
        }
        assert changed == set(SCHEDULES)

    def test_faults_reach_the_machines(self, monkeypatch):
        """The schedule exercises what it claims to: the core offline
        shrinks running BE jobs, and the open faults are live at the end."""
        shrinks = []
        original = Machine._shrink_any_be

        def counting(machine):
            shrunk = original(machine)
            shrinks.append(shrunk)
            return shrunk

        monkeypatch.setattr(Machine, "_shrink_any_be", counting)
        fleet = mixed_fleet()
        experiments = [
            _build_experiment(spec, fleet.config) for spec in fleet.instances
        ]
        FleetColocationKernel(experiments).run()
        assert any(shrinks)
        injector = experiments[4]._fault_injector
        open_kinds = {spec.kind for _name, spec in injector.active_faults}
        assert open_kinds == {FaultKind.NIC_DEGRADE, FaultKind.DVFS_CAP}
        master = experiments[4].deployment.servpod("master").machine
        assert master.dvfs.cap(BE_DOMAIN) is not None
        assert master.nic.link_scale < 1.0
        slave = experiments[2].deployment.servpod("slave").machine
        assert slave.dvfs.cap(BE_DOMAIN) is None
        injector = experiments[1]._fault_injector
        open_kinds = {spec.kind for _name, spec in injector.active_faults}
        assert open_kinds == {FaultKind.LLC_WAY_LOSS}

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_runs_match_run_reference(self, shards):
        fleet = mixed_fleet(shards=shards)
        assert fleet.run().digest == fleet.run_reference().digest


#: Digests of two governed stormed fleets (16 Redis instances, 90 s,
#: Heracles, zone governor at threshold 0.0 over 5-tick epochs). The
#: results were first pinned when faulted instances still ran a
#: per-instance tick path beside the fleet kernel; these values are
#: those same results in the binary ``result_digest`` format, derived
#: from the results of the last commit with the text format (its
#: ``TickSample``s rebuilt into columns and hashed). The governor has
#: no scalar reference, so these literals are what pins the tails
#: faulted instances feed it.
GOVERNED_STORM_DIGESTS = {
    3: "bdf247fd821b8297c45f20ab86dba906377ddf539b1d675b9c786106a259fc7f",
    4: "2d936e130f02c0e8d821e8e20377aeee344144afa21f6dd4ed5af54b61e542a2",
}


def governed_storm(storm_seed: int, shards: int):
    from repro.experiments.scenarios import storm_fleet
    from repro.faults.topology import CorrelatedFaultSchedule, FleetTopology

    config = FleetConfig(
        duration_s=90.0,
        shards=shards,
        workers=1,
        zone_size=2,
        epoch_ticks=5,
        violation_threshold=0.0,
    )
    fleet = alibaba_fleet(
        32,
        policy="heracles",
        duration_s=90.0,
        seed=1,
        config=config,
        flash_crowd_fraction=0.5,
    )
    topology = FleetTopology.generate(
        storm_seed, n_instances=len(fleet.instances), zone_size=2
    )
    storm = CorrelatedFaultSchedule.generate(
        storm_seed, topology, 90.0, events_per_minute=1.0
    )
    return storm_fleet(fleet, storm)


class TestGovernedStorm:
    # shards=1 ticks 32 machines on the whole-array path; shards=8
    # gives 4-machine shards on the per-machine python path.
    @pytest.mark.parametrize("shards", [1, 8])
    @pytest.mark.parametrize("storm_seed", sorted(GOVERNED_STORM_DIGESTS))
    def test_golden_digest(self, storm_seed, shards):
        stormed = governed_storm(storm_seed, shards)
        faulted = sum(1 for spec in stormed.instances if spec.faults is not None)
        assert 0 < faulted < len(stormed.instances)
        result = stormed.run(cache=False)
        assert any(record.clamped for record in result.zone_records)
        assert result.digest == GOVERNED_STORM_DIGESTS[storm_seed]
