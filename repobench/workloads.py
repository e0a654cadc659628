"""The benchmark's four workloads, each built from a seed.

A workload is a case object with three methods:

- ``run()`` does one timed iteration and returns the program's raw
  results;
- ``outcome(raw)`` reduces them, outside the timed region, to an
  :class:`Outcome` (digest, simulated work, model statistics, the
  iteration's own invariants);
- ``check(raw)`` compares one iteration against the program's reference
  paths (the scalar engine, solo member runs, a warm cache) and returns
  the problems it found.

Every iteration of a case repeats the same inputs, so its digest must
equal the warm-up's: that is the determinism check on every iteration.
All runs use one worker, so the pool executes inline and every layer
runs in this process, where the span recorder can see it.

The seed drives every random stream of the simulation (instance,
scenario and cell seeds). The shapes — fleet load curves, BE mixes,
topology, storm events, loads — are fixed, so runs with different seeds
do the same amount of work and differ only in the noise they simulate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

#: Modules a workload imports; set-up times importing them in a fresh
#: interpreter.
MODULES: Dict[str, List[str]] = {
    "fleet": ["repro.experiments.fleet"],
    "storm": ["repro.experiments.fleet", "repro.experiments.scenarios"],
    "bakeoff": ["repro.experiments.bakeoff"],
    "grid-cold": ["repro.parallel.grid"],
}

SERVICE = "Redis"
#: Seed of the fixed fleet shapes (load curves, flash crowds, BE mixes).
SHAPE_SEED = 0

#: fleet: a healthy Alibaba-shaped fleet under Rhythm's profiled policies.
FLEET_MACHINES = 128
FLEET_DURATION_S = 120.0
FLEET_SHARDS = 2
#: Instances re-run through the scalar engine as the identity oracle.
FLEET_ORACLE_INSTANCES = 2

#: storm: a smaller fleet under a correlated rack/AZ fault storm.
STORM_MACHINES = 96
STORM_DURATION_S = 120.0
STORM_ZONE_SIZE = 4
STORM_EVENTS_PER_MINUTE = 2.0
#: Seed of the fixed topology and storm.
STORM_SEED = 7

#: bakeoff: the four-member roster over three loads. Higher loads fork
#: more; at 0.85 some seeds break member identity (see CHANGES.md).
BAKEOFF_LOADS = (0.3, 0.45, 0.6)
BAKEOFF_BE_JOBS = ("stream-llc",)
BAKEOFF_DURATION_S = 600.0

#: grid-cold: profile from an empty cache, then Rhythm vs Heracles cells.
GRID_BE_JOBS = ("stream-dram", "stream-llc")
GRID_LOADS = (0.45, 0.65, 0.85)
GRID_DURATION_S = 300.0


@dataclass
class Outcome:
    """One iteration, reduced."""

    #: Fold of the program's result digests (bit-identity coordinate).
    digest: str
    #: Instance-ticks the program simulated in this iteration.
    events: int
    #: Mean normalized BE throughput per machine.
    be_throughput: float
    #: Worst window tail over the SLA, averaged over instances or cells.
    tail_over_sla: float
    #: The iteration's own invariants held (cache accounting etc.).
    ok: bool = True
    #: Work counts of this iteration, reported with ``--trace 1``.
    counts: Dict[str, float] = field(default_factory=dict)


def clear_memos() -> None:
    """Drop the in-process profiling memos, so set-up profiles afresh."""
    from repro.experiments.runner import clear_rhythm_cache
    from repro.parallel.profile import clear_profile_memo

    clear_rhythm_cache()
    clear_profile_memo()


def _fold(*digests: str) -> str:
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode("ascii"))
    return h.hexdigest()


def _mean_tail(results) -> float:
    """Mean of worst window tail over the SLA (every run is one service)."""
    from repro.workloads.catalog import lc_service_spec

    sla_ms = lc_service_spec(SERVICE).sla_ms
    return sum(r.worst_tail_ms / sla_ms for r in results) / len(results)


def _fleet(n_machines: int, duration_s: float, seed: int, **config):
    """The fixed-shape Rhythm fleet, its random streams drawn from ``seed``."""
    from repro.experiments.fleet import FleetConfig, FleetExperiment, alibaba_fleet

    cfg = FleetConfig(duration_s=duration_s, shards=FLEET_SHARDS, workers=1, **config)
    shaped = alibaba_fleet(
        n_machines, policy="rhythm", duration_s=duration_s, seed=SHAPE_SEED, config=cfg
    )
    return FleetExperiment(
        [
            dataclasses.replace(spec, seed=seed * 1_000 + k)
            for k, spec in enumerate(shaped.instances)
        ],
        cfg,
    )


def _scalar_digests(fleet, indexes: List[int]) -> List[str]:
    """Instance digests from the scalar engine, one instance at a time."""
    from repro.experiments.fleet import FleetExperiment

    return [
        FleetExperiment([fleet.instances[i]], fleet.config).run_reference().instances[0].digest
        for i in indexes
    ]


class FleetCase:
    """A healthy fleet through the fleet SoA kernel, uncached."""

    def __init__(self, seed: int, state: Path) -> None:
        self.fleet = _fleet(FLEET_MACHINES, FLEET_DURATION_S, seed)

    def run(self) -> Any:
        return self.fleet.run(cache=None)

    def outcome(self, result) -> Outcome:
        return Outcome(
            digest=result.digest,
            events=result.events_fired,
            be_throughput=result.be_throughput,
            tail_over_sla=_mean_tail(result.instances),
            counts={"sla_violations": result.sla_violations},
        )

    def check(self, result) -> List[str]:
        indexes = list(range(FLEET_ORACLE_INSTANCES))
        fast = [result.instances[i].digest for i in indexes]
        if fast != _scalar_digests(self.fleet, indexes):
            return ["fleet kernel differs from the scalar engine"]
        return []


class StormCase:
    """A stormed fleet: cold zone cache, warm re-run, one-event edit."""

    def __init__(self, seed: int, state: Path) -> None:
        from repro.experiments.scenarios import storm_fleet
        from repro.faults.topology import CorrelatedFaultSchedule, FleetTopology

        fleet = _fleet(
            STORM_MACHINES, STORM_DURATION_S, seed, zone_size=STORM_ZONE_SIZE
        )
        topology = FleetTopology.generate(
            STORM_SEED, n_instances=len(fleet.instances), zone_size=STORM_ZONE_SIZE
        )
        storm = CorrelatedFaultSchedule.generate(
            STORM_SEED,
            topology,
            STORM_DURATION_S,
            events_per_minute=STORM_EVENTS_PER_MINUTE,
        )
        self.stormed = storm_fleet(fleet, storm)
        # Dropping the event with the smallest blast radius must
        # re-simulate exactly that radius and hit the cache elsewhere.
        dropped = min(storm.events, key=lambda e: len(storm.blast_zones(e)))
        self.blast = set(storm.blast_zones(dropped))
        self.edited = storm_fleet(
            fleet,
            dataclasses.replace(
                storm, events=tuple(e for e in storm.events if e is not dropped)
            ),
        )
        self.zones = len(self.stormed.zone_plan())
        self.state = state

    def run(self) -> Any:
        from repro.cache import CacheStore

        directory = tempfile.mkdtemp(prefix="storm-", dir=self.state)
        try:
            store = CacheStore(directory=directory)
            cold = self.stormed.run(cache=store)
            warm = self.stormed.run(cache=store)
            edit = self.edited.run(cache=store)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return cold, warm, edit

    def outcome(self, raw) -> Outcome:
        cold, warm, edit = raw
        zone_size = STORM_ZONE_SIZE
        edit_events = sum(
            s.events_fired for s in edit.instances if s.index // zone_size in self.blast
        )
        ok = (
            warm.cache.simulated == 0
            and warm.digest == cold.digest
            and edit.cache.misses == len(self.blast)
            and edit.cache.hits == self.zones - len(self.blast)
        )
        return Outcome(
            digest=_fold(cold.digest, edit.digest),
            events=cold.events_fired + edit_events,
            be_throughput=cold.be_throughput,
            tail_over_sla=_mean_tail(cold.instances),
            ok=ok,
            counts={
                "sla_violations": cold.sla_violations,
                "cache_hits": warm.cache.hits + edit.cache.hits,
                "cache_misses": cold.cache.misses + edit.cache.misses,
                "zones_simulated": cold.cache.simulated + edit.cache.simulated,
                "faulted_instances": sum(
                    1 for spec in self.stormed.instances if spec.faults is not None
                ),
            },
        )

    def check(self, raw) -> List[str]:
        cold = raw[0]
        faulted = [
            i for i, spec in enumerate(self.stormed.instances) if spec.faults is not None
        ]
        healthy = [
            i for i, spec in enumerate(self.stormed.instances) if spec.faults is None
        ]
        indexes = faulted[:1] + healthy[:1]
        fast = [cold.instances[i].digest for i in indexes]
        if fast != _scalar_digests(self.stormed, indexes):
            return ["stormed fleet differs from the scalar engine"]
        return []


class BakeoffCase:
    """Four controllers, one shared-physics pass per scenario."""

    def __init__(self, seed: int, state: Path) -> None:
        from repro.experiments.bakeoff import (
            BakeoffConfig,
            bakeoff_scenario_grid,
            default_members,
        )

        self.members = default_members(SERVICE)
        self.scenarios = bakeoff_scenario_grid(
            service=SERVICE,
            loads=BAKEOFF_LOADS,
            be_jobs=BAKEOFF_BE_JOBS,
            duration_s=BAKEOFF_DURATION_S,
            seed=seed,
        )
        self.config = BakeoffConfig(duration_s=BAKEOFF_DURATION_S)

    def run(self) -> Any:
        from repro.experiments.bakeoff import run_bakeoff

        return run_bakeoff(self.scenarios, self.members, config=self.config, cache=None)

    def outcome(self, result) -> Outcome:
        cells = result.cells
        return Outcome(
            digest=result.digest,
            events=result.member_ticks,
            be_throughput=sum(c.be_throughput for c in cells) / len(cells),
            tail_over_sla=_mean_tail(cells),
            counts={
                "sla_violations": sum(c.sla_violations for c in cells),
                "bakeoff_forks": result.forks,
                "bakeoff_merges": result.merges,
                "branch_ticks": result.branch_ticks,
            },
        )

    def check(self, result) -> List[str]:
        from repro.experiments.bakeoff import run_member_reference

        solo = [
            run_member_reference(scenario, member, self.config).digest
            for scenario in self.scenarios
            for member in self.members
        ]
        if [c.digest for c in result.cells] != solo:
            return ["bake-off member differs from its solo run"]
        return []


class GridCase:
    """A comparison grid profiled from an empty cache."""

    def __init__(self, seed: int, state: Path) -> None:
        from repro.bejobs.catalog import be_job_spec
        from repro.experiments.colocation import ColocationConfig
        from repro.parallel.grid import GridCell
        from repro.workloads.catalog import lc_service_spec

        service = lc_service_spec(SERVICE)
        self.cells = [
            GridCell(service, be_job_spec(be), load, seed=seed)
            for be in GRID_BE_JOBS
            for load in GRID_LOADS
        ]
        self.config = ColocationConfig(duration_s=GRID_DURATION_S)
        self.state = state

    def _grid(self, store, **stats):
        from repro.parallel.grid import run_comparison_grid

        clear_memos()
        return run_comparison_grid(
            self.cells,
            config=self.config,
            workers=1,
            profile_workers=1,
            probe_slacklimits=False,
            cache=store,
            **stats,
        )

    def run(self) -> Any:
        from repro.cache import CacheStore
        from repro.parallel.grid import GridCacheStats
        from repro.parallel.profile import ProfileStats

        directory = tempfile.mkdtemp(prefix="grid-", dir=self.state)
        try:
            cells, profile = GridCacheStats(), ProfileStats()
            results = self._grid(
                CacheStore(directory=directory),
                cache_stats=cells,
                profile_stats=profile,
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return results, cells, profile

    def outcome(self, raw) -> Outcome:
        from repro.parallel.grid import comparison_fingerprint

        results, cells, profile = raw
        runs = [r.rhythm for r in results] + [r.heracles for r in results]
        blob = repr([comparison_fingerprint(r) for r in results]).encode("utf-8")
        return Outcome(
            digest=hashlib.sha256(blob).hexdigest(),
            events=sum(r.events_fired for r in runs),
            be_throughput=sum(r.be_throughput for r in runs) / len(runs),
            tail_over_sla=_mean_tail(runs),
            ok=cells.misses == len(self.cells) and profile.sweep_executed > 0,
            counts={
                "sla_violations": sum(r.sla_violations for r in runs),
                "cache_misses": cells.misses,
                "profile_sweeps_run": profile.sweep_executed,
                "profile_walks_run": profile.slack_executed,
            },
        )

    def check(self, raw) -> List[str]:
        from repro.baselines.heracles import heracles_controllers
        from repro.cache import CacheStore
        from repro.experiments.runner import run_cell
        from repro.loadgen.patterns import ConstantLoad
        from repro.parallel.grid import (
            GridCacheStats,
            colocation_fingerprint,
            comparison_fingerprint,
        )

        results = raw[0]
        problems = []
        # A warm re-run must serve every cell, bit-identical, from the store.
        directory = tempfile.mkdtemp(prefix="grid-", dir=self.state)
        try:
            store = CacheStore(directory=directory)
            self._grid(store)
            warm_stats = GridCacheStats()
            warm = self._grid(store, cache_stats=warm_stats)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if warm_stats.hits != len(self.cells) or [
            comparison_fingerprint(r) for r in warm
        ] != [comparison_fingerprint(r) for r in results]:
            problems.append("warm grid re-run was not all identical hits")
        # One cell's Heracles side through the scalar engine.
        cell = self.cells[-1]
        scalar = run_cell(
            cell.service,
            heracles_controllers(cell.service),
            cell.be_spec,
            ConstantLoad(cell.load),
            seed=cell.seed,
            config=self.config,
            kernel="scalar",
        )
        if colocation_fingerprint(scalar) != colocation_fingerprint(results[-1].heracles):
            problems.append("grid cell differs from the scalar engine")
        return problems


CASES = {
    "fleet": FleetCase,
    "storm": StormCase,
    "bakeoff": BakeoffCase,
    "grid-cold": GridCase,
}
