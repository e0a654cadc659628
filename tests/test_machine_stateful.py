"""Stateful property test: machine resource conservation.

Drives a :class:`~repro.cluster.machine.Machine` through arbitrary
interleavings of BE lifecycle operations (launch, grow, shrink, suspend,
resume, kill, memory steps) and checks the conservation invariants after
every step: cores and LLC ways are never oversubscribed or leaked, and
memory accounting never goes negative.

Seeded random op sequences (fault-held cores and ways included) also pin
the machine's maintained totals (the suspended count among them) to
from-scratch folds, the one-pass memory growth step to the per-job loop
it replaces, the BE pool's live-job view to a state filter over every
job ever placed, and the subcontrollers' allocation-table walks and
skipped scans to the pool-side full scans they replace.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.bejobs.catalog import STREAM_DRAM
from repro.bejobs.job import BeJobState
from repro.cluster.machine import Machine, MachineSpec
from repro.core.actions import BeAction
from repro.core.subcontrollers import (
    BeJobPool,
    CpuLlcSubcontroller,
    MemorySubcontroller,
)
from repro.errors import AllocationError
from repro.fold import left_sum


class MachineLifecycle(RuleBasedStateMachine):
    """Random BE lifecycle interleavings against one machine."""

    @initialize()
    def setup(self):
        self.machine = Machine(MachineSpec(name="m", cores=20, llc_ways=10))
        self.machine.reserve_lc(cores=8, llc_ways=4, memory_gb=32.0)
        self.counter = 0
        self.live: list[str] = []

    # -- operations ------------------------------------------------------

    @rule()
    def launch(self):
        self.counter += 1
        job_id = f"j{self.counter}"
        if self.machine.can_launch_be():
            self.machine.launch_be(job_id)
            self.live.append(job_id)
        else:
            with pytest.raises(AllocationError):
                self.machine.launch_be(job_id)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def grow(self, data):
        job_id = data.draw(st.sampled_from(self.live))
        self.machine.grow_be(job_id)  # may legitimately return False

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def shrink(self, data):
        job_id = data.draw(st.sampled_from(self.live))
        self.machine.shrink_be(job_id)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def suspend_resume(self, data):
        job_id = data.draw(st.sampled_from(self.live))
        self.machine.suspend_be(job_id)
        self.machine.resume_be(job_id)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def suspend(self, data):
        self.machine.suspend_be(data.draw(st.sampled_from(self.live)))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def resume(self, data):
        job_id = data.draw(st.sampled_from(self.live))
        suspended = self.machine.be_allocation(job_id).suspended
        version = self.machine.version
        self.machine.resume_be(job_id)
        assert self.machine.version == version + suspended

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def memory_steps(self, data):
        job_id = data.draw(st.sampled_from(self.live))
        self.machine.grow_be_memory(job_id)
        self.machine.shrink_be_memory(job_id)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def kill(self, data):
        job_id = data.draw(st.sampled_from(self.live))
        self.machine.kill_be(job_id)
        self.live.remove(job_id)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def cores_conserved(self):
        if not hasattr(self, "machine"):
            return
        machine = self.machine
        owned = machine.lc_cores + machine.be_total_cores
        assert owned + machine.cpuset.free_cores == machine.spec.cores
        assert machine.be_total_cores >= len(self.live)  # >= 1 core/job

    @invariant()
    def llc_conserved(self):
        if not hasattr(self, "machine"):
            return
        machine = self.machine
        owned = machine.lc_llc_ways + machine.be_total_llc_ways
        assert owned + machine.llc.free_ways == machine.llc.n_ways

    @invariant()
    def memory_never_negative(self):
        if not hasattr(self, "machine"):
            return
        assert self.machine.free_memory_gb >= -1e-9
        for alloc in self.machine.be_allocations():
            assert alloc.memory_gb >= self.machine.be_initial_memory_gb - 1e-9

    @invariant()
    def suspended_count_is_exact(self):
        if not hasattr(self, "machine"):
            return
        machine = self.machine
        assert machine.be_suspended_count == sum(
            a.suspended for a in machine._be.values()
        )

    @invariant()
    def allocation_records_match_live_set(self):
        if not hasattr(self, "machine"):
            return
        assert {a.job_id for a in self.machine.be_allocations()} == set(self.live)


MachineLifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestMachineLifecycle = MachineLifecycle.TestCase


# -- seeded random op sequences ---------------------------------------------

#: A BE job that keeps asking for memory: 2 GB at launch, 6 GB wanted.
HUNGRY = dataclasses.replace(STREAM_DRAM, name="hungry", memory_gb=6.0)
SEEDS = range(12)


def _small_machine() -> Machine:
    """A crowded machine: 16 GB of BE memory fills after a few launches."""
    machine = Machine(MachineSpec(name="m", cores=20, llc_ways=10, memory_gb=48.0))
    machine.reserve_lc(cores=6, llc_ways=3, memory_gb=32.0)
    return machine


def _bits(x):
    """Exact identity of a fold, its type included."""
    return type(x), float(x).hex()


def _assert_totals_fold(machine: Machine) -> None:
    allocs = list(machine.be_allocations())
    assert machine.be_suspended_count == sum(a.suspended for a in machine._be.values())
    assert machine.be_total_cores == sum(a.cores for a in allocs)
    assert machine.be_total_llc_ways == sum(a.llc_ways for a in allocs)
    assert float(machine.be_total_memory_gb).hex() == float(
        left_sum(a.memory_gb for a in allocs)
    ).hex()
    assert (
        machine.lc_cores + machine.be_total_cores + machine.offlined_cores
        + machine.cpuset.free_cores
    ) == machine.spec.cores
    assert (
        machine.lc_llc_ways + machine.be_total_llc_ways + machine.lost_llc_ways
        + machine.llc.free_ways
    ) == machine.llc.n_ways


def _memory_state(machine: Machine):
    return (
        [(a.job_id, a.memory_gb.hex()) for a in machine.be_allocations()],
        _bits(machine.be_total_memory_gb),
        machine.mem_version,
        machine.version,
    )


def _check_grow_all(machine: Machine, paths, skips=None) -> None:
    """``grow_all_be_memory`` on ``machine`` == the loop on a copy.

    The loop steps every running job below its working set, one
    :meth:`~Machine.grow_be_memory` call each. ``paths`` collects
    whether free memory left room for the one-pass fast path; ``skips``
    collects which kinds of job the step had to pass over.
    """
    twin = copy.deepcopy(machine)
    step = machine.be_memory_step_gb
    paths.add(machine.free_memory_gb > (machine.be_instance_count + 1) * step)
    grow = []
    for alloc in twin.be_allocations():
        if alloc.suspended:
            kind = "suspended"
        elif alloc.memory_gb >= alloc.working_set_gb:
            kind = "sated"
        else:
            grow.append(alloc.job_id)
            continue
        if skips is not None:
            skips.add(kind)
    if skips is not None and not grow:
        skips.add("empty")
    looped = sum(twin.grow_be_memory(j) for j in grow)
    assert machine.grow_all_be_memory() == looped
    assert _memory_state(machine) == _memory_state(twin)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_ops_keep_totals_and_batched_memory_exact(seed):
    rng = random.Random(seed)
    machine = _small_machine()
    live: list = []
    offlined = 0
    lost = 0
    paths: set = set()
    skips: set = set()
    for step in range(400):
        op = rng.randrange(12)
        job = rng.choice(live) if live else None
        if op == 0:
            job_id = f"j{step}"
            # Working sets at, just above and well above the 2 GB start.
            working_set = rng.choice([0.0, 2.0, 2.3, 6.0])
            if machine.can_launch_be():
                machine.launch_be(job_id, working_set)
                live.append(job_id)
            else:
                with pytest.raises(AllocationError):
                    machine.launch_be(job_id)
        elif op == 1 and job:
            machine.grow_be(job)
        elif op == 2 and job:
            machine.shrink_be(job)
        elif op == 3 and job:
            machine.suspend_be(job)
        elif op == 4 and job:
            # Resuming a job that is not suspended changes nothing.
            before = (machine.version, machine.be_suspended_count)
            suspended = machine.be_allocation(job).suspended
            machine.resume_be(job)
            if not suspended:
                assert (machine.version, machine.be_suspended_count) == before
        elif op == 5 and job and rng.random() < 0.3:
            machine.kill_be(job)
            live.remove(job)
        elif op == 6:
            offlined += machine.offline_cores(rng.randrange(1, 5))
        elif op == 7 and offlined:
            n = rng.randrange(1, offlined + 1)
            machine.restore_offlined_cores(n)
            offlined -= n
        elif op == 8:
            lost += machine.fault_llc_ways(rng.randrange(1, 3))
        elif op == 9 and lost:
            machine.restore_fault_llc_ways(lost)
            lost = 0
        elif op == 10 and job:
            if rng.random() < 0.5:
                machine.grow_be_memory(job)
            else:
                machine.shrink_be_memory(job)
        elif op == 11:
            _check_grow_all(machine, paths, skips)
        _assert_totals_fold(machine)
    assert True in paths
    # Suspended and sated jobs were passed over, and some steps had
    # nothing to grow at all.
    assert skips == {"suspended", "sated", "empty"}


def test_grow_all_near_full_refuses_exactly_where_the_loop_does():
    machine = _small_machine()
    ids = []
    while machine.can_launch_be():
        ids.append(f"j{len(ids)}")
        machine.launch_be(ids[-1], HUNGRY.memory_gb)
    # 16 GB of BE memory, eight 2 GB jobs: full. Kill one to free 20
    # steps; of the seven left, one is suspended and one already has
    # its working set, so five grow per call.
    machine.kill_be(ids.pop())
    machine.suspend_be(ids[0])
    machine.be_allocation(ids[1]).working_set_gb = machine.be_initial_memory_gb
    paths: set = set()
    skips: set = set()
    while machine.free_memory_gb >= machine.be_memory_step_gb:
        _check_grow_all(machine, paths, skips)
    _check_grow_all(machine, paths, skips)
    # Both the one-pass fast path and the near-full per-job fallback ran.
    assert paths == {True, False}
    assert skips == {"suspended", "sated"}
    assert machine.be_allocation(ids[0]).memory_gb == machine.be_initial_memory_gb
    assert machine.be_allocation(ids[1]).memory_gb == machine.be_initial_memory_gb
    _assert_totals_fold(machine)


def _old_jobs(pool: BeJobPool) -> list:
    return [j for j in pool._jobs.values() if j.state != BeJobState.KILLED]


def _old_running(pool: BeJobPool) -> list:
    return [j for j in pool._jobs.values() if j.state == BeJobState.RUNNING]


@pytest.mark.parametrize("seed", SEEDS)
def test_pool_live_view_matches_state_filter(seed):
    rng = random.Random(seed)
    machine = _small_machine()
    pool = BeJobPool([HUNGRY, STREAM_DRAM], "m", max_instances=6)
    cpu_llc = CpuLlcSubcontroller()
    memory = MemorySubcontroller()
    actions = list(BeAction)
    weights = [1 if a == BeAction.STOP_BE else 6 for a in actions]
    kills = 0
    for _ in range(300):
        action = rng.choices(actions, weights)[0]
        kills += pool.active_count if action == BeAction.STOP_BE else 0
        cpu_llc.apply(action, machine, pool)
        memory.apply(action, machine, pool)
        if rng.random() < 0.1:
            machine.offline_cores(rng.randrange(1, 4))
        assert pool.jobs() == _old_jobs(pool)
        assert pool.running() == _old_running(pool)
        assert pool.active_count == len(_old_jobs(pool))
        assert pool.total_killed == kills
        _assert_totals_fold(machine)


class _FullScanCpuLlc(CpuLlcSubcontroller):
    """The CPU/LLC subcontroller with the resume and grow scans it ran
    before they learned to skip and to walk the allocation table: the
    reference the skips and the table walk must equal."""

    @staticmethod
    def _resume_some(machine: Machine, pool: BeJobPool, count: int) -> None:
        resumed = 0
        for job in pool.jobs():
            if resumed >= count:
                break
            if job.state == BeJobState.SUSPENDED:
                machine.resume_be(job.job_id)
                job.resume()
                resumed += 1

    @staticmethod
    def _grow(machine: Machine, pool: BeJobPool) -> None:
        if pool.active_count < pool.max_instances and machine.can_launch_be():
            job = pool.new_job()
            machine.launch_be(job.job_id, job.spec.memory_gb)
            job.start(machine.spec.name)
            return
        thinnest = None
        fewest = 0
        for job in pool.running():
            cores = machine.be_allocation(job.job_id).cores
            if thinnest is None or cores < fewest:
                thinnest = job
                fewest = cores
        if thinnest is not None:
            machine.grow_be(thinnest.job_id)


class _FullScanMemory(MemorySubcontroller):
    """The memory subcontroller as a scan of the pool's running jobs
    against their specs, one :meth:`~Machine.grow_be_memory` each."""

    def apply(self, action: BeAction, machine: Machine, pool: BeJobPool) -> None:
        if action == BeAction.ALLOW_BE_GROWTH:
            for job in pool.running():
                alloc = machine.be_allocation(job.job_id)
                if alloc is not None and alloc.memory_gb < job.spec.memory_gb:
                    machine.grow_be_memory(job.job_id)
        else:
            super().apply(action, machine, pool)


def _world(machine: Machine, pool: BeJobPool):
    """Everything a subcontroller apply can change, exactly."""
    return (
        [
            (a.job_id, a.cores, a.llc_ways, a.memory_gb.hex(), a.suspended)
            for a in machine._be.values()
        ],
        [
            (j.job_id, j.state, j.machine_name, j.normalized_work.hex())
            for j in pool._jobs.values()
        ],
        list(pool._live),
        machine.version,
        machine.mem_version,
        machine.be_suspended_count,
        dataclasses.astuple(machine.counters),
        machine.cpuset.free_cores,
        machine.llc.free_ways,
        pool.total_killed,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_scan_skips_match_full_scans(seed):
    """The pool run above, each period also applied to a deep copy of the
    world through the full-scan references: the worlds must stay equal.

    The table walks rest on two invariants, checked every period: the
    pool's running jobs are the machine's unsuspended allocations in
    placement order, and the launch-extended memory fold equals a
    from-scratch fold."""
    rng = random.Random(seed)
    machine = _small_machine()
    pool = BeJobPool([HUNGRY, STREAM_DRAM], "m", max_instances=6)
    cpu_llc = CpuLlcSubcontroller()
    reference = _FullScanCpuLlc()
    memory = MemorySubcontroller()
    reference_memory = _FullScanMemory()
    actions = list(BeAction)
    weights = [1 if a == BeAction.STOP_BE else 6 for a in actions]
    resumers = (BeAction.DISALLOW_BE_GROWTH, BeAction.ALLOW_BE_GROWTH)
    skipped = {"resume": 0, "grow": 0}
    for _ in range(300):
        action = rng.choices(actions, weights)[0]
        if action in resumers and not machine.be_suspended_count:
            skipped["resume"] += 1
        if (
            action == BeAction.ALLOW_BE_GROWTH
            and not (pool.active_count < pool.max_instances and machine.can_launch_be())
            and machine.cpuset.free_cores < 1
        ):
            skipped["grow"] += 1
        twin_machine, twin_pool = copy.deepcopy((machine, pool))
        reference.apply(action, twin_machine, twin_pool)
        reference_memory.apply(action, twin_machine, twin_pool)
        cpu_llc.apply(action, machine, pool)
        memory.apply(action, machine, pool)
        assert _world(machine, pool) == _world(twin_machine, twin_pool)
        if rng.random() < 0.1:
            machine.offline_cores(rng.randrange(1, 4))
        assert [j.job_id for j in pool.running()] == [
            a.job_id for a in machine.be_allocations() if not a.suspended
        ]
        _assert_totals_fold(machine)
    assert skipped["resume"] and skipped["grow"]


def test_machine_journals_be_changes_only_while_attached():
    machine = _small_machine()
    machine.launch_be("a")
    machine.grow_be("a")
    assert machine.be_changes is None
    machine.be_changes = []
    machine.launch_be("b")
    machine.grow_be("b")
    machine.shrink_be("b")
    machine.grow_be_memory("b")
    machine.suspend_be("a")
    machine.suspend_be("a")
    machine.resume_be("a")
    machine.offline_cores(machine.cpuset.free_cores + 1)
    machine.kill_be("b")
    assert machine.be_changes == [
        ("launch", "b"),
        ("resize", "b"),
        ("resize", "b"),
        ("suspend", "a"),
        ("resume", "a"),
        ("resize", "a"),
        ("kill", "b"),
    ]


@pytest.mark.parametrize("free", [0, 1, 2])
def test_grow_scan_boundary_matches_full_scan(free):
    """At the instance cap, ``_grow`` widens the thinnest job whenever a
    core is free and changes nothing when none is."""
    machine = _small_machine()
    pool = BeJobPool([STREAM_DRAM], "m", max_instances=2)
    cpu_llc = CpuLlcSubcontroller()
    for _ in range(3):
        cpu_llc.apply(BeAction.ALLOW_BE_GROWTH, machine, pool)
    machine.offline_cores(machine.cpuset.free_cores - free)
    assert machine.cpuset.free_cores == free
    twin_machine, twin_pool = copy.deepcopy((machine, pool))
    version = machine.version
    cpu_llc.apply(BeAction.ALLOW_BE_GROWTH, machine, pool)
    _FullScanCpuLlc().apply(BeAction.ALLOW_BE_GROWTH, twin_machine, twin_pool)
    assert _world(machine, pool) == _world(twin_machine, twin_pool)
    assert machine.version == version + (free > 0)
