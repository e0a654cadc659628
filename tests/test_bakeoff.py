"""Tests for the single-pass controller bake-off.

The load-bearing contract: every member of a bake-off pass (slots of
one :class:`~repro.sim.kernel.FleetColocationKernel`, aliased per
scenario) — result fingerprint AND final RNG stream states — is
bit-identical to running that member alone through a fresh
:class:`ColocationExperiment` on the scalar engine, in-process, in
fork- and spawn-started children, and under fault schedules. The
oracle is always the engine-driven scalar loop, never the kernel the
bake-off itself runs on. Divergence forking is exercised at its edges
(never diverge, diverge at the first tick, re-converge mid-run) and on
both tick paths, and the cell cache is pinned to treat the controller
member as a key coordinate while wall-clock knobs stay out.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.baselines.heracles import heracles_controllers
from repro.baselines.interference import (
    InterferencePolicy,
    interference_controllers,
)
from repro.baselines.predictive import PredictivePolicy, predictive_controllers
from repro.bejobs.catalog import evaluation_be_jobs
from repro.cache import CacheStore
from repro.cache.keys import CODE_VERSION_SALT
from repro.cluster.machine import BE_DOMAIN, LC_DOMAIN
from repro.core.actions import BeAction
from repro.core.controller import ColocationController
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.bakeoff import (
    BakeoffConfig,
    BakeoffMember,
    bakeoff_cell_key,
    bakeoff_scenario_grid,
    default_members,
    heracles_member,
    interference_member,
    predictive_member,
    run_bakeoff,
    run_member_reference,
)
from repro.experiments.colocation import (
    ColocationConfig,
    ColocationExperiment,
    result_digest,
)
from repro.faults.spec import FaultSchedule
from repro.loadgen.patterns import ConstantLoad, DiurnalLoad
from repro.parallel.grid import colocation_fingerprint
import repro.sim.kernel as kernel_mod
from repro.sim.kernel import (
    KERNEL_ENV_VAR,
    FleetColocationKernel,
    _scenario_shared_state,
    _world_digest,
)
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import redis_service
from tests.probes import bakeoff_identity_probe


def rng_states(streams):
    return tuple(
        (name, repr(streams._streams[name].bit_generator.state))
        for name in sorted(streams._streams)
    )


class Scripted(ColocationController):
    """Plays a fixed per-tick action script (for divergence edge cases)."""

    def __init__(self, pod, sla_ms, script, default):
        super().__init__(pod, sla_ms)
        self.script = dict(script)
        self.default = default
        self.calls = 0

    def _decide(self, load, tail_ms):
        action = self.script.get(self.calls, self.default)
        self.calls += 1
        return action


def scripted(script, default):
    return lambda service: {
        pod: Scripted(pod, service.sla_ms, script, default)
        for pod in service.servpod_names
    }


def build(service, controllers, pattern, seed, config, kernel=None):
    return ColocationExperiment(
        service,
        controllers,
        [evaluation_be_jobs()[0]],
        pattern,
        streams=RandomStreams(seed),
        config=config,
        kernel=kernel,
    )


def run_independent(service, controllers_fn, pattern, seed, config):
    """The identity oracle: one member alone on the scalar engine."""
    exp = build(
        service, controllers_fn(service), pattern, seed, config, kernel="scalar"
    )
    return colocation_fingerprint(exp.run()), rng_states(exp.streams)


def run_shared(service, members, pattern, seed, config):
    """One bake-off pass: every member a slot aliased to the first.

    Returns ``(kernel, results by member name)``; member ``k``'s final
    streams are ``kernel.member_world(k).streams``.
    """
    experiments = [
        build(service, fn(service), pattern, seed, config)
        for fn in members.values()
    ]
    kernel = FleetColocationKernel(experiments, aliases=[0] * len(experiments))
    return kernel, dict(zip(members, kernel.run()))


def n_ticks(kernel):
    return len(kernel._tick_times())


def assert_members_identical(service, members, pattern, seed, config):
    kernel, results = run_shared(service, members, pattern, seed, config)
    for k, (name, fn) in enumerate(members.items()):
        fingerprint, states = run_independent(
            service, fn, pattern, seed, config
        )
        assert colocation_fingerprint(results[name]) == fingerprint, name
        assert rng_states(kernel.member_world(k).streams) == states, name
    return kernel


#: Five members that disagree early and often; under faults, the
#: worst case for forking, with a mid-run flip that lets branches
#: re-converge.
FAULTED_ROSTER = {
    "grower": scripted({}, BeAction.ALLOW_BE_GROWTH),
    "stopper": scripted({}, BeAction.STOP_BE),
    "flipper": scripted(
        {0: BeAction.ALLOW_BE_GROWTH, 1: BeAction.STOP_BE}, BeAction.STOP_BE
    ),
    "late": scripted({3: BeAction.STOP_BE}, BeAction.ALLOW_BE_GROWTH),
    "heracles": heracles_controllers,
}


def check_merge_key(monkeypatch):
    """Pin every merge grouping to the full-digest partition.

    The two-stage grouping (scalar key, detail only on collisions) must
    give the same groups, holding the same slots in the same order, as
    grouping every live slot of the scenario by its full
    ``_world_digest``. Returns a dict counting the attempts checked.
    """
    seen = {"attempts": 0, "merging": 0}
    original = FleetColocationKernel._merge_groups

    def checked(self, slots):
        by_digest = {}
        for i in slots:
            by_digest.setdefault(_world_digest(self._exps[i]), []).append(i)
        expected = list(by_digest.values())
        got = original(self, slots)
        assert got == expected
        seen["attempts"] += 1
        seen["merging"] += len(expected) < len(slots)
        return got

    monkeypatch.setattr(FleetColocationKernel, "_merge_groups", checked)
    return seen


def check_merge_completeness(monkeypatch):
    """Pin every merge check to the full-digest partition of *all* live
    slots.

    Before each ``_merge_converged`` call, every live slot is written
    back and the slots of each scenario are grouped by full
    ``_world_digest``; the call must retire exactly the later slots of
    each group onto its first, whose riders they then join. Unlike
    :func:`check_merge_key`, this sees a slot the pre-key stage wrongly
    keeps from the later stages. Returns a dict counting the calls and
    the merges checked.
    """
    seen = {"calls": 0, "merges": 0}
    original = FleetColocationKernel._merge_converged

    def checked(self):
        groups = {}
        for i in self._live:
            self._write_back(self._inst_machines[i])
            key = (self._head[i], _world_digest(self._exps[i]))
            groups.setdefault(key, []).append(i)
        retire = {
            other: group[0] for group in groups.values() for other in group[1:]
        }
        live = list(self._live)
        riders = {i: list(self._riders[i]) for i in live}
        merges = self.merges
        original(self)
        assert self._live == [i for i in live if i not in retire]
        assert self.merges == merges + len(retire)
        for other, keep in retire.items():
            assert self._riders[other] == []
            assert all(self._ride[c] == keep for c in riders[other])
        seen["calls"] += 1
        seen["merges"] += len(retire)

    monkeypatch.setattr(FleetColocationKernel, "_merge_converged", checked)
    return seen


@pytest.fixture
def scalar_oracle(monkeypatch):
    """Reference runs (``run_member_reference``) on the scalar engine;
    the bake-off pass itself always runs on the fleet kernel."""
    monkeypatch.setenv(KERNEL_ENV_VAR, "scalar")


class TestBakeoffKernelIdentity:
    """Shared-pass results are bit-identical to independent runs."""

    def test_three_family_roster_healthy(self):
        service = redis_service()
        kernel = assert_members_identical(
            service,
            {
                "heracles": heracles_controllers,
                "interference": interference_controllers,
                "predictive": predictive_controllers,
            },
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            3,
            ColocationConfig(duration_s=60.0),
        )
        # The pass must actually share physics, not run 3x independently.
        assert kernel.slot_ticks < n_ticks(kernel) * 3

    def test_identity_under_faults(self):
        service = redis_service()
        faults = FaultSchedule.generate(7, 60.0, faults_per_minute=4.0)
        assert_members_identical(
            service,
            {
                "heracles": heracles_controllers,
                "stopper": scripted({}, BeAction.STOP_BE),
            },
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            3,
            ColocationConfig(duration_s=60.0, faults=faults),
        )

    def test_never_diverge_is_pure_sharing(self):
        # Two members running the exact same policy: one branch,
        # zero forks, every physics pass shared.
        service = redis_service()
        kernel = assert_members_identical(
            service,
            {"a": heracles_controllers, "b": heracles_controllers},
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            3,
            ColocationConfig(duration_s=60.0),
        )
        assert kernel.forks == 0
        assert kernel.merges == 0
        assert kernel.slot_ticks == n_ticks(kernel)
        assert len(kernel._live) == 1

    def test_diverge_at_tick_zero_degenerates_to_independent(self):
        # Members disagreeing from the very first tick (and STOP is
        # never memoizable) fork immediately and stay forked: the
        # shared pass degenerates to independent execution.
        service = redis_service()
        kernel = assert_members_identical(
            service,
            {
                "grower": scripted({}, BeAction.ALLOW_BE_GROWTH),
                "stopper": scripted({}, BeAction.STOP_BE),
            },
            ConstantLoad(0.4),
            5,
            ColocationConfig(duration_s=60.0),
        )
        assert kernel.forks == 1
        assert len(kernel._live) == 2
        # Both slots tick every tick after the first-tick fork.
        assert kernel.slot_ticks == 2 * n_ticks(kernel) - 1

    def test_reconverge_mid_run_merges_back(self):
        # "ab" allows one launch then stops (killing the job claws its
        # work back to a whole-unit boundary), "b" stops throughout —
        # their worlds re-converge and the branches must re-merge.
        service = redis_service()
        kernel = assert_members_identical(
            service,
            {
                "ab": scripted(
                    {0: BeAction.ALLOW_BE_GROWTH, 1: BeAction.STOP_BE},
                    BeAction.STOP_BE,
                ),
                "b": scripted({}, BeAction.STOP_BE),
            },
            ConstantLoad(0.4),
            5,
            ColocationConfig(duration_s=60.0),
        )
        assert kernel.forks >= 1
        assert kernel.merges >= 1
        assert len(kernel._live) == 1

    def test_high_divergence_roster_under_faults(self, monkeypatch):
        # The worst case for copy-on-write forking: five members whose
        # scripts disagree early and often, under an active fault
        # schedule (so forked clones carry live injector state), with a
        # mid-run flip that lets some branches re-converge. Every member
        # must still match its independent reference run bit for bit,
        # and every merge attempt must group as the full digest does.
        merge_checks = check_merge_key(monkeypatch)
        service = redis_service()
        faults = FaultSchedule.generate(11, 60.0, faults_per_minute=6.0)
        kernel = assert_members_identical(
            service,
            FAULTED_ROSTER,
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            5,
            ColocationConfig(duration_s=60.0, faults=faults),
        )
        assert kernel.forks >= 3
        assert merge_checks["attempts"] > 0
        assert merge_checks["merging"] > 0

    def test_rejects_empty_roster_and_missing_pods(self):
        service = redis_service()
        pattern = ConstantLoad(0.4)
        config = ColocationConfig(duration_s=30.0)
        with pytest.raises(ConfigurationError):
            FleetColocationKernel([])
        partial = heracles_controllers(service)
        partial.popitem()
        with pytest.raises(ExperimentError):
            build(service, partial, pattern, 0, config)
        # A member can only ride a world it would have built itself.
        head = build(service, heracles_controllers(service), pattern, 0, config)
        for other in (
            build(service, heracles_controllers(service), pattern, 1, config),
            build(
                service, heracles_controllers(service), ConstantLoad(0.4), 0, config
            ),
        ):
            with pytest.raises(ConfigurationError):
                FleetColocationKernel([head, other], aliases=[0, 0])
        with pytest.raises(ConfigurationError):
            FleetColocationKernel([head, head], aliases=[1, 1])

    def test_rejects_action_filter(self):
        service = redis_service()
        pattern = ConstantLoad(0.4)
        config = ColocationConfig(duration_s=30.0)
        exp = build(service, heracles_controllers(service), pattern, 0, config)
        exp.action_filter = lambda pod, action: action
        twin = build(service, heracles_controllers(service), pattern, 0, config)
        with pytest.raises(ConfigurationError):
            FleetColocationKernel([exp, twin], aliases=[0, 0])


class TestTickPaths:
    """The same forking, merging roster on the small and vec tick paths."""

    @pytest.mark.parametrize("limit", [0, 64])
    def test_forking_roster_matches_scalar_on_both_paths(self, limit, monkeypatch):
        monkeypatch.setattr(kernel_mod, "_SMALL_FLEET_MACHINES", limit)
        merge_checks = check_merge_key(monkeypatch)
        service = redis_service()
        faults = FaultSchedule.generate(11, 60.0, faults_per_minute=6.0)
        kernel = assert_members_identical(
            service,
            FAULTED_ROSTER,
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            5,
            ColocationConfig(duration_s=60.0, faults=faults),
        )
        assert kernel._small == (limit > 0)
        assert kernel.forks >= 3 and kernel.merges >= 1
        assert merge_checks["merging"] > 0


def redis_roster_bakeoff(seed):
    """The four-member Redis roster over loads 0.3/0.45/0.6 (stream-llc,
    600 s): one shared pass of three scenarios."""
    scenarios = bakeoff_scenario_grid(
        service="Redis",
        loads=(0.3, 0.45, 0.6),
        be_jobs=("stream-llc",),
        duration_s=600.0,
        seed=seed,
    )
    return run_bakeoff(
        scenarios,
        default_members("Redis"),
        BakeoffConfig(duration_s=600.0),
        cache=None,
    )


class TestMergeCompleteness:
    """The merge check retires exactly the slots the full digest over
    every live slot would, on both tick paths; the pre-key only skips
    write-backs."""

    @pytest.mark.parametrize("limit", [0, 64])
    def test_faulted_five_member_roster(self, limit, monkeypatch):
        monkeypatch.setattr(kernel_mod, "_SMALL_FLEET_MACHINES", limit)
        seen = check_merge_completeness(monkeypatch)
        faults = FaultSchedule.generate(11, 60.0, faults_per_minute=6.0)
        kernel, _ = run_shared(
            redis_service(),
            FAULTED_ROSTER,
            DiurnalLoad(base=0.5, amplitude=0.25, period_s=60.0),
            5,
            ColocationConfig(duration_s=60.0, faults=faults),
        )
        assert kernel._small == (limit > 0)
        assert seen["merges"] == kernel.merges > 0

    @pytest.mark.parametrize("limit", [0, 64])
    def test_four_member_redis_roster(self, limit, monkeypatch):
        monkeypatch.setattr(kernel_mod, "_SMALL_FLEET_MACHINES", limit)
        seen = check_merge_completeness(monkeypatch)
        result = redis_roster_bakeoff(1)
        assert seen["calls"] > 0
        assert seen["merges"] == result.merges > 0


class TestBranchCounters:
    """Forks, merges and branch ticks of the four-member Redis roster,
    as recorded before the merge check read rows: a cheaper check must
    not move them."""

    @pytest.mark.parametrize(
        "seed, counters",
        [(1, (7, 4, 1690)), (2, (5, 2, 1705)), (3, (8, 6, 1498))],
    )
    def test_redis_roster_counters(self, seed, counters):
        result = redis_roster_bakeoff(seed)
        assert (result.forks, result.merges, result.branch_ticks) == counters


class TestTickPathChoice:
    """The small/vec choice counts the rows that start live: dormant
    slots cost the python tick nothing."""

    def test_dormant_rows_do_not_count(self, monkeypatch):
        monkeypatch.setattr(kernel_mod, "_SMALL_FLEET_MACHINES", 2)
        service = redis_service()
        grower = scripted({}, BeAction.ALLOW_BE_GROWTH)
        config = ColocationConfig(duration_s=30.0)
        pattern = ConstantLoad(0.3)

        def kernel(seeds, aliases):
            experiments = [
                build(service, grower(service), pattern, s, config) for s in seeds
            ]
            return FleetColocationKernel(experiments, aliases=aliases)

        # Six rows, two live: one scenario, three members.
        assert kernel([5, 5, 5], [0, 0, 0])._small
        # Eight rows, four live: a second scenario.
        assert not kernel([5, 5, 5, 6], [0, 0, 0, 3])._small


def grown_pair(limit, monkeypatch):
    """Two growers riding one slot (``_SMALL_FLEET_MACHINES`` set to
    ``limit``), ticked until their BE jobs run."""
    monkeypatch.setattr(kernel_mod, "_SMALL_FLEET_MACHINES", limit)
    service = redis_service()
    grower = scripted({}, BeAction.ALLOW_BE_GROWTH)
    config = ColocationConfig(duration_s=30.0)
    pattern = ConstantLoad(0.3)
    experiments = [
        build(service, grower(service), pattern, 5, config) for _ in range(2)
    ]
    kernel = FleetColocationKernel(experiments, aliases=[0, 0])
    for t in kernel._tick_times()[:5]:
        kernel.tick(t, kernel._period_s, last=False)
    assert kernel._live == [0]
    return kernel


class TestForkCopiesKernelState:
    """A fork happens mid-tick, so the new slot must carry the row state
    only the kernel holds, not just a copy of the world."""

    @pytest.mark.parametrize("limit", [0, 64])
    def test_fork_copies_kernel_row_state(self, limit, monkeypatch):
        kernel = grown_pair(limit, monkeypatch)
        src = kernel._inst_machines[0]
        # Values no dormant row holds: a stepped-down request, this
        # tick's LC load and traffic, a proven no-op.
        for m in src:
            machine = kernel._m_mach[m]
            kernel._freq[m] = kernel._f_max_l[m] - kernel._f_step_l[m]
            kernel._lc_busy[m] += 1.25
            kernel._last_net[m] += 0.5
            kernel._memo[m].add(
                (
                    BeAction.DISALLOW_BE_GROWTH,
                    machine.version,
                    machine.mem_version,
                    kernel._fkey[m],
                )
            )
        dst = kernel._fork(0, [1])
        assert kernel._ride == [0, dst] and kernel._riders[dst] == [1]
        columns = (
            kernel._freq,
            kernel._lc_busy,
            kernel._last_net,
            kernel._fault_m,
            kernel._fcap_l,
            kernel._lc_r3_l,
            kernel._link_nic_l,
            kernel._fkey,
            kernel._memo,
        )
        for ms, md in zip(src, kernel._inst_machines[dst]):
            for column in columns:
                assert column[md] == column[ms]
        assert _world_digest(kernel._exps[dst]) == _world_digest(kernel._exps[0])


class TestMergeKeyWriteBack:
    """Live slots that differ only in state the kernel holds between
    writes back (SoA BE progress, the requested BE frequency) must not
    merge: the merge key reads worlds only after a write-back."""

    @staticmethod
    def _split(limit, monkeypatch):
        """Two growers split into two live slots with identical worlds;
        returns (kernel, a job row of the new slot)."""
        kernel = grown_pair(limit, monkeypatch)
        dst = kernel._fork(0, [1])
        assert kernel._live == [0, dst]
        row = next(m for m in kernel._inst_machines[dst] if kernel._njobs_l[m])
        return kernel, row

    def test_merge_adopts_only_no_ops_of_the_current_state(self, monkeypatch):
        kernel, _ = self._split(64, monkeypatch)
        dst = kernel._live[1]
        for mk, mo in zip(kernel._inst_machines[0], kernel._inst_machines[dst]):
            machine = kernel._m_mach[mo]
            fkey = kernel._fkey[mo]
            kernel._memo[mo] = {
                (BeAction.DISALLOW_BE_GROWTH, machine.version, machine.mem_version, fkey),
                # Proven in an older state the survivor never shared.
                (BeAction.ALLOW_BE_GROWTH, machine.version - 1, machine.mem_version, fkey),
            }
            kernel._memo[mk] = set()
        kernel._merge_converged()
        assert kernel._live == [0]
        for mk in kernel._inst_machines[0]:
            machine = kernel._m_mach[mk]
            assert kernel._memo[mk] == {
                (
                    BeAction.DISALLOW_BE_GROWTH,
                    machine.version,
                    machine.mem_version,
                    kernel._fkey[mk],
                )
            }

    @pytest.mark.parametrize("limit", [0, 64])
    def test_identical_slots_merge(self, limit, monkeypatch):
        kernel, _ = self._split(limit, monkeypatch)
        kernel._merge_converged()
        assert kernel._live == [0] and kernel.merges == 1
        assert kernel._riders[0] == [0, 1]

    @pytest.mark.parametrize("limit", [0, 64])
    def test_progress_only_difference_blocks_merge(self, limit, monkeypatch):
        kernel, row = self._split(limit, monkeypatch)
        if kernel._small:
            kernel._nw_py[row][0] += 0.5
        else:
            kernel._nw[row, 0] += 0.5
        kernel._merge_converged()
        assert len(kernel._live) == 2 and kernel.merges == 0

    @pytest.mark.parametrize("limit", [0, 64])
    def test_requested_frequency_only_difference_blocks_merge(
        self, limit, monkeypatch
    ):
        kernel, row = self._split(limit, monkeypatch)
        freq = int(kernel._freq[row])
        step = kernel._f_step_l[row]
        kernel._freq[row] = freq - step if freq > kernel._f_min_l[row] else freq + step
        kernel._merge_converged()
        assert len(kernel._live) == 2 and kernel.merges == 0


class TestForkAndMerge:
    """What a fork copies, what it shares, and what a merge compares."""

    def _forked(self):
        # Two Heracles twins never part, so one slot of three stays
        # dormant for the fork below.
        service = redis_service()
        faults = FaultSchedule.generate(7, 30.0, faults_per_minute=6.0)
        kernel, _ = run_shared(
            service,
            {
                "grower": scripted({}, BeAction.ALLOW_BE_GROWTH),
                "heracles": heracles_controllers,
                "twin": heracles_controllers,
            },
            ConstantLoad(0.3),
            5,
            ColocationConfig(duration_s=30.0, faults=faults),
        )
        src = kernel._ride[2]
        dst = kernel._fork(src, [2])
        assert kernel._ride[2] == dst != src
        return kernel._exps[src], kernel._exps[dst]

    @staticmethod
    def _records(exp):
        jobs = [
            job for run in exp._runs.values() for job in run.pool._jobs.values()
        ]
        allocations = [
            alloc for machine in exp.deployment.cluster
            for alloc in machine._be.values()
        ]
        return jobs, allocations

    def test_fork_is_isolated_from_its_parent(self):
        parent, fork = self._forked()
        before = _world_digest(parent)
        assert _world_digest(fork) == before

        # Declared-shared scenario objects are the very same objects.
        shared = _scenario_shared_state(parent)
        forked = _scenario_shared_state(fork)
        assert len(shared) == len(forked)
        for ours, theirs in zip(shared, forked):
            assert ours is theirs
        # Job records and allocations are all distinct objects.
        jobs, allocations = self._records(parent)
        fork_jobs, fork_allocations = self._records(fork)
        assert jobs and allocations
        assert len(fork_jobs) == len(jobs)
        assert len(fork_allocations) == len(allocations)
        assert not {id(j) for j in jobs} & {id(j) for j in fork_jobs}
        assert not {id(a) for a in allocations} & {
            id(a) for a in fork_allocations
        }

        # Mutate every kind of world state the fork owns.
        exp = fork
        for pod, run in exp._runs.items():
            machine = exp.deployment.servpod(pod).machine
            for job in run.pool.running():
                job.advance(1.0, 0.5)
            for job_id in list(machine._be):
                machine.grow_be_memory(job_id)
            exp._cpu_llc.apply(BeAction.STOP_BE, machine, run.pool)  # kills
            exp._cpu_llc.apply(BeAction.ALLOW_BE_GROWTH, machine, run.pool)
            launched = run.pool.jobs()
            assert launched  # the ALLOW launched a fresh job
            machine.grow_be_memory(launched[0].job_id)
            machine.dvfs.step_down(BE_DOMAIN)
            machine.dvfs.step_down(LC_DOMAIN)
            machine.dvfs.set_cap(BE_DOMAIN, machine.dvfs.min_mhz)
            machine.offline_cores(1)
        for name, stream in exp.streams._streams.items():
            assert stream is not parent.streams._streams[name]
            stream.random(3)

        assert _world_digest(fork) != before
        assert _world_digest(parent) == before

    def test_digest_sees_requested_frequency_under_a_cap(self):
        # Under a DVFS cap two worlds can run at the same effective BE
        # frequency while requesting different ones; once the cap lifts
        # they run apart, so they must never merge.
        service = redis_service()

        def build():
            return ColocationExperiment(
                service,
                heracles_controllers(service),
                [evaluation_be_jobs()[0]],
                ConstantLoad(0.4),
                streams=RandomStreams(5),
                config=ColocationConfig(duration_s=30.0),
            )

        a, b = build(), build()
        assert _world_digest(a) == _world_digest(b)
        pod = service.servpod_names[0]
        dvfs_a = a.deployment.servpod(pod).machine.dvfs
        dvfs_b = b.deployment.servpod(pod).machine.dvfs
        for dvfs in (dvfs_a, dvfs_b):
            dvfs.set_cap(BE_DOMAIN, dvfs.min_mhz)
        dvfs_b.set_frequency(BE_DOMAIN, dvfs_b.max_mhz - dvfs_b.step_mhz)
        assert dvfs_a.frequency(BE_DOMAIN) == dvfs_b.frequency(BE_DOMAIN)
        assert dvfs_a.cap(BE_DOMAIN) == dvfs_b.cap(BE_DOMAIN)
        assert _world_digest(a) != _world_digest(b)
        for dvfs in (dvfs_a, dvfs_b):
            dvfs.clear_cap(BE_DOMAIN)
        assert dvfs_a.frequency(BE_DOMAIN) != dvfs_b.frequency(BE_DOMAIN)

    def test_merge_key_matches_full_digest_four_member_roster(self, monkeypatch):
        merge_checks = check_merge_key(monkeypatch)
        scenarios = bakeoff_scenario_grid(
            service="Redis",
            loads=(0.6,),
            be_jobs=("stream-llc",),
            duration_s=600.0,
            seed=1,
        )
        result = run_bakeoff(
            scenarios,
            default_members("Redis"),
            BakeoffConfig(duration_s=600.0),
            cache=None,
        )
        assert result.forks > 0 and result.merges > 0
        assert merge_checks["attempts"] > 0
        assert merge_checks["merging"] > 0


class TestBakeoffExperiment:
    """run_bakeoff vs. per-member reference runs, and the league table."""

    def _grid(self, **kwargs):
        kwargs.setdefault("loads", (0.35, 0.55))
        kwargs.setdefault("duration_s", 60.0)
        kwargs.setdefault("seed", 3)
        return bakeoff_scenario_grid(**kwargs)

    def _members(self):
        return [
            heracles_member("Redis"),
            interference_member(),
            predictive_member(),
        ]

    def test_cells_match_reference_bitwise(self, scalar_oracle):
        config = BakeoffConfig(duration_s=60.0)
        scenarios = self._grid()
        members = self._members()
        result = run_bakeoff(scenarios, members, config, cache=None)
        for cell in result.cells:
            scenario = next(s for s in scenarios if s.label == cell.scenario)
            member = next(m for m in members if m.name == cell.member)
            reference = run_member_reference(scenario, member, config)
            assert cell == reference
        assert result.passes == len(scenarios)

    def test_mixed_healthy_and_faulted_scenarios_in_one_pass(
        self, scalar_oracle
    ):
        config = BakeoffConfig(duration_s=60.0)
        scenarios = self._grid() + self._grid(
            loads=(0.45,), seed=4, faults_per_minute=6.0
        )
        assert [s.faults is not None for s in scenarios] == [False, False, True]
        members = self._members()
        result = run_bakeoff(scenarios, members, config, cache=None)
        assert result.passes == len(scenarios)
        # The digest folds the final RNG states, so equal digests pin
        # both the results and the streams to the scalar engine.
        expected = [
            run_member_reference(scenario, member, config)
            for scenario in scenarios
            for member in members
        ]
        assert result.cells == expected

    def test_probe_modes_agree(self, scalar_oracle):
        assert bakeoff_identity_probe("bakeoff") == bakeoff_identity_probe(
            "reference"
        )

    def test_league_ranks_by_violations_then_emu(self):
        result = run_bakeoff(
            self._grid(),
            self._members(),
            BakeoffConfig(duration_s=60.0),
            cache=None,
        )
        league = result.league()
        assert [row.rank for row in league] == list(
            range(1, len(league) + 1)
        )
        keys = [(row.sla_violations, -row.emu) for row in league]
        assert keys == sorted(keys)
        assert {row.member for row in league} == {
            m.name for m in self._members()
        }

    def test_default_members_cover_four_families(self):
        members = default_members("Redis")
        assert [m.name for m in members] == [
            "rhythm",
            "heracles",
            "interference",
            "predictive",
        ]

    def test_validation_errors(self):
        config = BakeoffConfig(duration_s=30.0)
        members = self._members()
        with pytest.raises(ConfigurationError):
            run_bakeoff([], members, config)
        with pytest.raises(ConfigurationError):
            run_bakeoff(self._grid(), [], config)
        with pytest.raises(ConfigurationError):
            run_bakeoff(
                self._grid(),
                [interference_member(), interference_member()],
                config,
            )
        with pytest.raises(ConfigurationError):
            BakeoffMember(name="x", kind="nope")
        with pytest.raises(ConfigurationError):
            BakeoffMember(name="x", kind="policies")


class TestBakeoffIdentityAcrossProcesses:
    def test_fork_subprocess_identity(self, scalar_oracle):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            child = pool.apply(bakeoff_identity_probe, ("bakeoff",))
        assert child == bakeoff_identity_probe("reference")

    @pytest.mark.slow
    def test_spawn_subprocess_identity(self, scalar_oracle):
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(
                bakeoff_identity_probe, ("bakeoff",), {"with_faults": True}
            )
        assert child == bakeoff_identity_probe(
            "reference", with_faults=True
        )


class TestBoundaryValidation:
    """Clocks that cannot tick and fault rates that cannot be drawn are
    rejected where they enter: the configs, the scenario grid, the CLI."""

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
    def test_configs_reject_unusable_clocks(self, bad):
        for make in (
            lambda: BakeoffConfig(duration_s=bad),
            lambda: BakeoffConfig(control_period_s=bad),
            lambda: ColocationConfig(duration_s=bad),
            lambda: ColocationConfig(control_period_s=bad),
        ):
            with pytest.raises(ConfigurationError):
                make()

    @pytest.mark.parametrize(
        "bad", [-3.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_grid_rejects_bad_fault_rate(self, bad):
        with pytest.raises(ConfigurationError):
            bakeoff_scenario_grid(
                loads=(0.4,), duration_s=30.0, faults_per_minute=bad
            )

    @pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf")])
    def test_grid_rejects_bad_duration(self, bad):
        with pytest.raises(ConfigurationError):
            bakeoff_scenario_grid(loads=(0.4,), duration_s=bad)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--duration", "nan"],
            ["--duration", "inf"],
            ["--duration", "-1"],
            ["--faults-per-minute", "-3"],
            ["--faults-per-minute", "nan"],
        ],
    )
    def test_cli_exits_with_a_clean_error(self, extra, capsys):
        from repro.cli import main

        argv = [
            "bakeoff",
            "--members", "heracles",
            "--loads", "0.3",
            "--be-jobs", "stream-llc",
            "--duration", "20",
            "--no-cache",
        ]
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Bake-off" not in captured.out


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / "bakeoff-cache")


class TestBakeoffCellKey:
    def _parts(self):
        scenario = bakeoff_scenario_grid(loads=(0.45,), duration_s=30.0)[0]
        return scenario, interference_member(), BakeoffConfig(duration_s=30.0)

    def test_member_is_a_key_coordinate(self):
        # The whole point of the bake-off cache: who decided matters.
        scenario, member, config = self._parts()
        base = bakeoff_cell_key(scenario, member, config)
        assert base != bakeoff_cell_key(
            scenario,
            interference_member(InterferencePolicy(cut_above=0.75)),
            config,
        )
        assert base != bakeoff_cell_key(
            scenario, predictive_member(), config
        )
        assert base != bakeoff_cell_key(
            scenario, interference_member(name="renamed"), config
        )

    def test_scenario_label_is_not_a_coordinate(self):
        import dataclasses

        scenario, member, config = self._parts()
        relabeled = dataclasses.replace(scenario, label="elsewhere")
        assert bakeoff_cell_key(scenario, member, config) == bakeoff_cell_key(
            relabeled, member, config
        )

    def test_fleet_wall_clock_knobs_remain_non_coordinates(self):
        # Companion regression: the member became a coordinate while
        # shard/worker counts stayed out of every key family.
        from repro.experiments.fleet import FleetConfig, zone_cache_key
        from repro.loadgen.patterns import ConstantLoad as CL

        from tests.test_fleet_cache import constant_specs

        specs = constant_specs(2)
        del CL  # imported only to mirror the fleet test fixture
        base = zone_cache_key(specs, FleetConfig(duration_s=30.0))
        for shards, workers in ((2, 1), (4, 2), (8, None)):
            assert base == zone_cache_key(
                specs,
                FleetConfig(duration_s=30.0, shards=shards, workers=workers),
            )

    def test_salt_bumped_past_pre_bakeoff_entries(self):
        # :5 entries predate the controller-interface extraction and
        # the bakeoff-cell family; they must never be served again.
        tag = CODE_VERSION_SALT.rsplit(":", 1)[-1]
        assert tag.isdigit() and int(tag) >= 6


class TestBakeoffCaching:
    def _run(self, store, members=None, loads=(0.35, 0.55)):
        return run_bakeoff(
            bakeoff_scenario_grid(loads=loads, duration_s=30.0, seed=3),
            members
            or [
                heracles_member("Redis"),
                interference_member(),
                predictive_member(),
            ],
            BakeoffConfig(duration_s=30.0),
            cache=store,
        )

    def test_warm_rerun_zero_passes_identical_digest(self, store):
        cold = self._run(store)
        warm = self._run(store)
        assert cold.digest == warm.digest
        assert cold.cells == warm.cells
        assert warm.passes == 0
        assert warm.cache.hits == warm.cache.total == 6
        assert warm.cache.simulated == 0

    def test_uncached_run_reports_no_stats(self):
        result = self._run(None)
        assert result.cache is None

    def test_partial_roster_hits_then_extends(self, store):
        solo = self._run(store, members=[interference_member()])
        extended = self._run(store)
        assert extended.cache.hits == 2  # interference, both scenarios
        assert extended.cache.misses == 4
        # Served-from-cache cells equal the freshly simulated ones.
        for cell in solo.cells:
            twin = next(
                c
                for c in extended.cells
                if c.member == cell.member and c.scenario == cell.scenario
            )
            assert twin == cell

    def test_retuned_member_misses_cleanly(self, store):
        self._run(store)
        retuned = self._run(
            store,
            members=[
                heracles_member("Redis"),
                interference_member(InterferencePolicy(cut_above=0.75)),
                predictive_member(),
            ],
        )
        assert retuned.cache.hits == 4
        assert retuned.cache.misses == 2

    def test_corrupted_entry_recomputes(self, store):
        cold = self._run(store, members=[interference_member()])
        scenario = bakeoff_scenario_grid(
            loads=(0.35, 0.55), duration_s=30.0, seed=3
        )[0]
        key = bakeoff_cell_key(
            scenario, interference_member(), BakeoffConfig(duration_s=30.0)
        )
        store.put(key, ("not", "a", "summary"))
        again = self._run(store, members=[interference_member()])
        assert again.digest == cold.digest
        assert again.cache.misses == 1 and again.cache.hits == 1


class TestMemberDigest:
    def test_digest_folds_fingerprint_and_rng(self):
        service = redis_service()
        config = ColocationConfig(duration_s=30.0)
        exp = ColocationExperiment(
            service,
            heracles_controllers(service),
            [evaluation_be_jobs()[0]],
            ConstantLoad(0.4),
            streams=RandomStreams(2),
            config=config,
        )
        result = exp.run()
        digest = result_digest(exp.streams, result)
        assert len(digest) == 64 and int(digest, 16) >= 0
        # Rebuilding the same run reproduces the digest exactly.
        exp2 = ColocationExperiment(
            service,
            heracles_controllers(service),
            [evaluation_be_jobs()[0]],
            ConstantLoad(0.4),
            streams=RandomStreams(2),
            config=config,
        )
        assert result_digest(exp2.streams, exp2.run()) == digest
