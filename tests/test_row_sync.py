"""Patched kernel rows equal a from-scratch reload.

``FleetColocationKernel`` keeps each machine's BE job row current from
the machine's journal of BE changes: launches and resizes patch cells
in place, anything else (suspend, resume, kill, a fault transition)
resets the row. After every tick these tests drain the journals, write
the rows' BE progress back, and compare every live row's python twins
and, on the vec path, its SoA cells bitwise against a reset of the same
row from the world objects. Random apply sequences with core-offlining
faults run on a small fleet, and a forking, merging bake-off runs on its
slots; both on each tick path, and both must still match the scalar
engine.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.core.actions import BeAction
from repro.experiments.colocation import ColocationConfig, result_digest
from repro.faults.spec import FaultKind, FaultSchedule
from repro.loadgen.patterns import DiurnalLoad
from repro.parallel.grid import colocation_fingerprint
from repro.sim.kernel import FleetColocationKernel
from repro.workloads.catalog import redis_service
from tests.test_bakeoff import build, rng_states, run_independent, scripted
from tests.test_fleet_faults import _spec, tick_path  # noqa: F401 (fixture)

PATTERN = DiurnalLoad(base=0.5, amplitude=0.3, period_s=40.0)

#: Action weights of the random apply sequences: mostly growth (launch
#: until the instance cap, then widen), with cuts, suspensions, resumes
#: (DISALLOW and ALLOW resume suspended jobs) and the odd STOP.
WEIGHTS = {
    BeAction.ALLOW_BE_GROWTH: 10,
    BeAction.DISALLOW_BE_GROWTH: 2,
    BeAction.CUT_BE: 3,
    BeAction.SUSPEND_BE: 1,
    BeAction.STOP_BE: 1,
}


def _hexes(*values):
    return tuple(float(v).hex() for v in values)


def row_state(kernel, m):
    """Everything the kernel holds for row ``m``, bit for bit."""
    k = kernel
    state = (
        list(k._rids[m]),
        [id(job) for job in k._row_jobs[m]],
        list(k._row_ids[m]),
        k._njobs_l[m],
        (k._cnt_inst_l[m], k._cnt_cores_l[m], k._cnt_ways_l[m]),
        _hexes(k._md_l[m], k._nd_l[m], k._busy_be_l[m], k._llc_dem_l[m]),
        _hexes(k._llc_occ_l[m], k._p_cpu_l[m], k._p_llc_l[m]),
    )
    if k._small:
        return state + (_hexes(*k._nw_py[m]), _hexes(*k._rs_py[m]))
    columns = [arr for arr, _pad in k._soa_cols]
    columns += [k._nw, k._rs, k._valid, k._busy_be, k._md_total, k._nd_total]
    columns += [k._cnt_inst, k._cnt_cores, k._cnt_ways]
    return state + tuple(arr[m].tobytes() for arr in columns)


def checking(kernel, seen):
    """Wrap ``kernel.tick`` to check every live row after each tick;
    ``seen`` counts the journal entries the row syncs consumed (where
    ``_patch_row`` reads them: a bake-off's merge check syncs inside the
    tick) and the fault refreshes that dropped journals."""
    tick = kernel.tick
    refresh = kernel._refresh_faults
    patch = kernel._patch_row

    def counted(i):
        seen["fault refresh"] += 1
        refresh(i)

    def counted_patch(m):
        changes = kernel._m_mach[m].be_changes
        if changes is not None:
            seen.update(kind for kind, _job in changes)
        return patch(m)

    def checked(t, dt, last):
        tick(t, dt, last)
        if kernel._dirty:
            kernel._sync_rows()
        rows = kernel._live_rows
        # A reset reads BE progress from the jobs, so land it there.
        kernel._flush_rows(rows)
        before = {m: row_state(kernel, m) for m in rows}
        for m in rows:
            kernel._reset_row(m)
        if not kernel._small:
            kernel._upload_rows([(m, 0, 0) for m in rows])
        for m in rows:
            assert row_state(kernel, m) == before[m], (t, m)

    kernel.tick = checked
    kernel._refresh_faults = counted
    kernel._patch_row = counted_patch


def random_actions(seed):
    """An ``action_filter`` replacing each decision by a seeded draw."""
    rng = random.Random(seed)
    actions = list(WEIGHTS)
    weights = list(WEIGHTS.values())
    return lambda pod, action: rng.choices(actions, weights)[0]


def random_fleet(kernel="batched"):
    service = redis_service()
    offline = FaultSchedule(
        seed=21,
        faults=(
            _spec(FaultKind.CORE_OFFLINE, 12.0, 10.0, 0.9),
            _spec(FaultKind.CORE_OFFLINE, 30.0, 6.0, 0.95, target="master"),
            _spec(FaultKind.LLC_WAY_LOSS, 20.0, 15.0, 0.5),
        ),
    )
    experiments = []
    for k in range(3):
        config = ColocationConfig(
            duration_s=50.0,
            max_be_instances=4,
            faults=offline if k != 1 else None,
        )
        exp = build(
            service,
            scripted({}, BeAction.ALLOW_BE_GROWTH)(service),
            PATTERN,
            40 + k,
            config,
            kernel=kernel,
        )
        exp.action_filter = random_actions(k)
        experiments.append(exp)
    return experiments


def test_random_applies_and_faults_patch_like_a_reload(tick_path):
    seen = Counter()
    experiments = random_fleet()
    kernel = FleetColocationKernel(experiments)
    checking(kernel, seen)
    results = kernel.run()
    assert kernel._small == (tick_path == "small")
    for kind in ("launch", "resize", "suspend", "resume", "kill", "fault refresh"):
        assert seen[kind], kind
    references = random_fleet(kernel="scalar")
    for exp, result, ref in zip(experiments, results, references):
        assert result_digest(exp.streams, result) == result_digest(
            ref.streams, ref.run()
        )
        # The kernel is done with the machines: nothing journals now.
        assert all(m.be_changes is None for m in exp.deployment.cluster)


def test_forking_bakeoff_patches_like_a_reload(tick_path):
    seen = Counter()
    service = redis_service()
    faults = FaultSchedule.generate(11, 60.0, faults_per_minute=6.0)
    config = ColocationConfig(duration_s=60.0, faults=faults)
    members = {
        "grower": scripted({}, BeAction.ALLOW_BE_GROWTH),
        "stopper": scripted({}, BeAction.STOP_BE),
        "flipper": scripted(
            {0: BeAction.ALLOW_BE_GROWTH, 1: BeAction.STOP_BE}, BeAction.STOP_BE
        ),
        "late": scripted({3: BeAction.STOP_BE}, BeAction.ALLOW_BE_GROWTH),
        "cutter": scripted({5: BeAction.CUT_BE}, BeAction.ALLOW_BE_GROWTH),
        "restart": scripted({8: BeAction.STOP_BE}, BeAction.ALLOW_BE_GROWTH),
    }
    experiments = [
        build(service, fn(service), PATTERN, 5, config) for fn in members.values()
    ]
    kernel = FleetColocationKernel(experiments, aliases=[0] * len(experiments))
    checking(kernel, seen)
    results = kernel.run()
    assert kernel.forks >= 3 and kernel.merges >= 1
    # Every STOP here empties a slot that then merges with an empty one,
    # so its kills retire with the slot; the fleet test drains kills.
    for kind in ("launch", "resize", "suspend", "resume", "fault refresh"):
        assert seen[kind], kind
    for k, (name, fn) in enumerate(members.items()):
        fingerprint, states = run_independent(service, fn, PATTERN, 5, config)
        assert rng_states(kernel.member_world(k).streams) == states, name
        assert colocation_fingerprint(results[k]) == fingerprint, name
