"""Production-ops scenario drivers: storms, canary, drift, capacity.

Four seeded scenarios on top of the fleet layer, each reusing the
existing machinery unchanged:

- :func:`storm_fleet` / :func:`run_fleet_storm` — overlay a
  :class:`~repro.faults.topology.CorrelatedFaultSchedule` (rack power,
  AZ cooling, ToR degrade) on a fleet and run it under multiple
  policies. The storm expands into per-instance
  :class:`~repro.faults.spec.FaultSchedule`\\ s riding inside
  :class:`~repro.experiments.fleet.FleetInstanceSpec.faults`, so the
  injector, the fleet kernel, sharding, and the zone cache all work
  unchanged — and a storm invalidates exactly its blast-radius zones'
  cache entries.
- :func:`run_canary` — rolling-release canary: one instance per zone
  runs a "new version" with a shifted latency distribution (a
  whole-run low-magnitude machine stall); regression is detected from
  the canary's tail contribution relative to its zone's controls.
- :func:`run_drift` — slow workload drift: the profiling sweep grid
  slides epoch by epoch, and the load-point-granular profile cache
  makes re-profiling incremental (only the newly-entered load points
  simulate).
- :func:`run_capacity` — capacity-planning what-if: for each demand
  multiplier, the minimum fleet size whose SLA-violation rate stays
  under target. The search resumes from the previous multiplier's
  answer, so the reported curve is non-decreasing by construction
  (capacity is only ever added, as in a real planning exercise).

Every driver is a pure function of its seeds: all randomness flows
through :func:`~repro.faults.spec._derived_rng`-style generators or the
fleet's own seeded builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cache import CacheStore
from repro.core.rhythm import RhythmConfig
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.fleet import (
    _BE_MIXES,
    _DEFAULT_SERVICES,
    FleetConfig,
    FleetExperiment,
    FleetInstanceSpec,
    FleetResult,
    alibaba_fleet,
    heracles_fleet_policies,
    rhythm_fleet_policies,
)
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec, _derived_rng
from repro.faults.topology import (
    CorrelatedFaultSchedule,
    FleetTopology,
    merge_schedules,
)
from repro.loadgen.patterns import ConstantLoad
from repro.parallel.profile import (
    ProfileStats,
    profile_service_parallel,
    resolve_store,
)
from repro.workloads.catalog import lc_service_spec

# -- correlated storms over a fleet ---------------------------------------


def storm_fleet(
    experiment: FleetExperiment, storm: CorrelatedFaultSchedule
) -> FleetExperiment:
    """A new fleet with the storm's faults overlaid on its instances.

    The storm's topology must match the fleet's shape (instance count
    and ``zone_size``) — that alignment is what makes the blast radius
    a set of whole zones and keeps the zone-cache contract exact.
    Instances outside every blast radius keep their spec object
    *untouched* (same cache key); instances inside get their existing
    fault schedule merged with the storm's expansion.
    """
    topo = storm.topology
    if topo.n_instances != len(experiment.instances):
        raise ExperimentError(
            f"storm topology covers {topo.n_instances} instances but the "
            f"fleet has {len(experiment.instances)}"
        )
    if topo.zone_size != experiment.config.zone_size:
        raise ExperimentError(
            f"storm topology zone_size {topo.zone_size} disagrees with "
            f"fleet zone_size {experiment.config.zone_size}"
        )
    expanded = storm.per_instance_schedules()
    instances = list(experiment.instances)
    for index, schedule in expanded.items():
        instances[index] = replace(
            instances[index],
            faults=merge_schedules(instances[index].faults, schedule),
        )
    return FleetExperiment(instances, experiment.config)


@dataclass
class FleetStormReport:
    """One correlated storm run under one or more fleet policies."""

    storm: CorrelatedFaultSchedule
    duration_s: float
    #: (policy name, stormed-fleet result), in run order.
    results: List[Tuple[str, FleetResult]] = field(default_factory=list)
    #: (policy name, healthy baseline result) when requested.
    baselines: List[Tuple[str, FleetResult]] = field(default_factory=list)

    @property
    def topology(self) -> FleetTopology:
        return self.storm.topology

    def result(self, policy: str) -> FleetResult:
        for name, res in self.results:
            if name == policy:
                return res
        raise ExperimentError(f"no stormed result for policy {policy!r}")

    def baseline(self, policy: str) -> FleetResult:
        for name, res in self.baselines:
            if name == policy:
                return res
        raise ExperimentError(f"no baseline result for policy {policy!r}")


def run_fleet_storm(
    n_machines: int = 64,
    policies: Sequence[str] = ("rhythm", "heracles"),
    duration_s: float = 120.0,
    seed: int = 0,
    storm_seed: int = 1,
    events_per_minute: float = 1.0,
    services: Sequence[str] = _DEFAULT_SERVICES,
    load: str = "diurnal",
    config: Optional[FleetConfig] = None,
    cache: Union[None, bool, CacheStore] = None,
    with_baseline: bool = False,
) -> FleetStormReport:
    """One seeded storm, same domain events, run under each policy.

    The topology is generated from ``storm_seed`` over the fleet's
    actual shape, so every policy faces the *identical* blast radii
    and event windows — the fleet analogue of the single-machine
    ``chaos`` command. ``with_baseline`` also runs each policy's
    healthy (storm-free) fleet for side-by-side degradation numbers.
    """
    report: Optional[FleetStormReport] = None
    for policy in policies:
        fleet = alibaba_fleet(
            n_machines,
            policy=policy,
            duration_s=duration_s,
            seed=seed,
            services=services,
            config=config,
            load=load,
        )
        if report is None:
            topology = FleetTopology.generate(
                storm_seed,
                n_instances=len(fleet.instances),
                zone_size=fleet.config.zone_size,
            )
            storm = CorrelatedFaultSchedule.generate(
                storm_seed,
                topology,
                duration_s,
                events_per_minute=events_per_minute,
            )
            report = FleetStormReport(storm=storm, duration_s=duration_s)
        else:
            if len(fleet.instances) != report.topology.n_instances:
                raise ExperimentError(
                    f"policy {policy!r} built {len(fleet.instances)} "
                    f"instances; {report.topology.n_instances} expected — "
                    "policies must shape the fleet identically"
                )
        if with_baseline:
            report.baselines.append((policy, fleet.run(cache=cache)))
        stormed = storm_fleet(fleet, report.storm)
        report.results.append((policy, stormed.run(cache=cache)))
    if report is None:
        raise ConfigurationError("need at least one policy to run a storm")
    return report


def storm_identity_probe(
    mode: str = "fleet",
    n_instances: int = 6,
    duration_s: float = 60.0,
    seed: int = 3,
    storm_seed: int = 7,
    shards: int = 1,
) -> str:
    """Digest of a small stormed fleet under ``mode``.

    Module-level and importable by reference (spawn-safe), mirroring
    :func:`~repro.experiments.fleet.fleet_identity_probe`: identity
    tests run it in fork- and spawn-started children and across shard
    counts, and equal digests mean the stormed fleet is bit-identical
    to the sequential scalar reference.
    """
    if mode not in ("fleet", "reference"):
        raise ExperimentError(
            f"mode must be 'fleet' or 'reference', got {mode!r}"
        )
    config = FleetConfig(
        duration_s=duration_s, shards=shards, workers=1, zone_size=2
    )
    fleet = alibaba_fleet(
        2 * n_instances,
        policy="heracles",
        duration_s=duration_s,
        seed=seed,
        config=config,
    )
    topology = FleetTopology.generate(
        storm_seed, n_instances=len(fleet.instances), zone_size=2
    )
    storm = CorrelatedFaultSchedule.generate(
        storm_seed, topology, duration_s, events_per_minute=2.0
    )
    stormed = storm_fleet(fleet, storm)
    result = stormed.run() if mode == "fleet" else stormed.run_reference()
    return result.digest


def storm_schedule_probe(
    seed: int = 0,
    n_instances: int = 32,
    zone_size: int = 4,
    duration_s: float = 300.0,
    events_per_minute: float = 1.0,
) -> str:
    """Canonical repr of a generated storm and its full expansion.

    Importable by reference so the property tests can assert the
    expansion is a pure function of ``(seed, topology)`` across fork-
    and spawn-started processes: equal strings mean byte-identical
    topology, events, and per-instance fault streams.
    """
    topology = FleetTopology.generate(
        seed, n_instances=n_instances, zone_size=zone_size
    )
    storm = CorrelatedFaultSchedule.generate(
        seed, topology, duration_s, events_per_minute=events_per_minute
    )
    expansion = sorted(storm.per_instance_schedules().items())
    return repr((topology, storm.events, expansion))


# -- rolling-release canary ------------------------------------------------

#: The canary's "new version": a whole-run machine stall whose
#: magnitude shifts the latency distribution of every request on the
#: canary instance (see ``repro.faults.cluster.STALL_SLOWDOWN_SPAN``).
CANARY_FAULT_KIND = FaultKind.MACHINE_STALL


@dataclass(frozen=True)
class CanaryZoneVerdict:
    """One zone's canary A/B comparison: new version vs old, same traffic."""

    zone: int
    canary_index: int
    canary_tail_ms: float
    #: The same instance's worst tail in the healthy baseline run.
    baseline_tail_ms: float
    #: canary / baseline tail ratio (inf when the baseline saw no tail).
    tail_ratio: float
    regressed: bool


@dataclass
class CanaryReport:
    """Outcome of one rolling-release canary run."""

    result: FleetResult
    baseline: FleetResult
    verdicts: List[CanaryZoneVerdict]
    threshold: float
    slowdown: float

    @property
    def regressed_zones(self) -> Tuple[int, ...]:
        return tuple(v.zone for v in self.verdicts if v.regressed)

    @property
    def detection_rate(self) -> float:
        """Fraction of zones whose canary was flagged."""
        if not self.verdicts:
            return 0.0
        return len(self.regressed_zones) / len(self.verdicts)


def canary_indices(
    n_instances: int, zone_size: int, canary_seed: int
) -> Tuple[int, ...]:
    """The seeded per-zone canary picks (one instance per zone).

    Pure function of its arguments: picks derive from a dedicated RNG
    (salt ``"canary-roll"``), one draw per zone in zone order.
    """
    rng = _derived_rng(canary_seed, "canary-roll")
    picks = []
    for zid in range(math.ceil(n_instances / zone_size)):
        start = zid * zone_size
        width = min(n_instances, start + zone_size) - start
        picks.append(start + int(rng.integers(width)))
    return tuple(picks)


def run_canary(
    n_machines: int = 32,
    policy: str = "heracles",
    duration_s: float = 120.0,
    seed: int = 0,
    canary_seed: int = 1,
    slowdown: float = 0.08,
    threshold: float = 1.10,
    services: Sequence[str] = _DEFAULT_SERVICES,
    config: Optional[FleetConfig] = None,
    cache: Union[None, bool, CacheStore] = None,
) -> CanaryReport:
    """Roll a shifted-latency "new version" onto one instance per zone.

    Each zone's canary gets a whole-run :data:`CANARY_FAULT_KIND` fault
    of magnitude ``slowdown`` — every request on that instance runs on
    a stalled machine, shifting its latency distribution exactly the
    way a bad release would. Detection is an A/B against the *same
    instance* in a healthy baseline run of the identical fleet (same
    seeds, same traffic): a canary/baseline worst-tail ratio above
    ``threshold`` flags the zone as regressed. Comparing an instance
    to itself — not to its zone neighbours, whose seeds and load
    phases differ — is what makes detection deterministic, and both
    runs are plain fleets, so the zone cache serves repeats.

    With ``slowdown`` at 0.08 the stall is ~1.7× (see
    ``STALL_SLOWDOWN_SPAN``), well clear of the default 1.10 ratio
    threshold. Detection is still a measurement, not an axiom: the
    stall also feeds back through the controller (higher tails throttle
    BE jobs, removing interference), which can partially mask a small
    regression over a short window — larger ``slowdown`` values detect
    unconditionally (pinned by ``tests/test_scenarios.py``).
    """
    if not (0.0 < slowdown <= 1.0):
        raise ConfigurationError(
            f"canary slowdown must be in (0, 1], got {slowdown}"
        )
    if threshold <= 0:
        raise ConfigurationError(
            f"canary threshold must be > 0, got {threshold}"
        )
    fleet = alibaba_fleet(
        n_machines,
        policy=policy,
        duration_s=duration_s,
        seed=seed,
        services=services,
        config=config,
    )
    zone_size = fleet.config.zone_size
    picks = canary_indices(len(fleet.instances), zone_size, canary_seed)
    shift = FaultSpec(
        kind=CANARY_FAULT_KIND,
        at_s=0.0,
        duration_s=duration_s,
        magnitude=slowdown,
    )
    instances = list(fleet.instances)
    for index in picks:
        canary_schedule = FaultSchedule(seed=canary_seed, faults=(shift,))
        instances[index] = replace(
            instances[index],
            faults=merge_schedules(instances[index].faults, canary_schedule),
        )
    baseline = fleet.run(cache=cache)
    result = FleetExperiment(instances, fleet.config).run(cache=cache)
    by_index = {s.index: s for s in result.instances}
    healthy = {s.index: s for s in baseline.instances}
    verdicts: List[CanaryZoneVerdict] = []
    for zid, canary_index in enumerate(picks):
        canary_tail = by_index[canary_index].worst_tail_ms
        baseline_tail = healthy[canary_index].worst_tail_ms
        ratio = (
            canary_tail / baseline_tail if baseline_tail > 0 else float("inf")
        )
        verdicts.append(
            CanaryZoneVerdict(
                zone=zid,
                canary_index=canary_index,
                canary_tail_ms=canary_tail,
                baseline_tail_ms=baseline_tail,
                tail_ratio=ratio,
                regressed=ratio > threshold,
            )
        )
    return CanaryReport(
        result=result,
        baseline=baseline,
        verdicts=verdicts,
        threshold=threshold,
        slowdown=slowdown,
    )


# -- slow workload drift ---------------------------------------------------


@dataclass(frozen=True)
class DriftEpochReport:
    """One drift epoch's profiling work accounting."""

    epoch: int
    loads: Tuple[float, ...]
    sweep_points: int
    sweep_executed: int
    sweep_cache_hits: int
    artifact_cache_hits: int
    #: The epoch's derived per-pod loadlimits, sorted by pod.
    loadlimits: Tuple[Tuple[str, float], ...]


@dataclass
class DriftReport:
    """Outcome of one workload-drift re-profiling run."""

    service: str
    epochs: List[DriftEpochReport]

    @property
    def total_executed(self) -> int:
        return sum(e.sweep_executed for e in self.epochs)

    @property
    def total_cached(self) -> int:
        return sum(e.sweep_cache_hits for e in self.epochs)


def drift_grid(
    epoch: int,
    start: float = 0.20,
    step: float = 0.10,
    window: int = 5,
    drift_per_epoch: float = 0.10,
) -> Tuple[float, ...]:
    """Epoch ``epoch``'s profiling grid: the base window, slid right.

    Points are rounded to 4 decimals so the same nominal level hashes
    to the same :func:`~repro.parallel.profile.load_point_cache_key`
    in every epoch — that exactness is what makes overlapping windows
    hit the cache.
    """
    return tuple(
        round(start + epoch * drift_per_epoch + j * step, 4)
        for j in range(window)
    )


def run_drift(
    service: str = "Redis",
    epochs: int = 3,
    seed: int = 0,
    start: float = 0.20,
    step: float = 0.10,
    window: int = 5,
    drift_per_epoch: float = 0.10,
    requests_per_load: int = 120,
    tail_samples: int = 800,
    probe_slacklimits: bool = False,
    cache: Union[None, bool, CacheStore] = None,
) -> DriftReport:
    """Re-profile a service as its operating load range slowly drifts.

    Each epoch's sweep grid is the previous epoch's slid right by
    ``drift_per_epoch``; with ``drift_per_epoch == step`` (the default)
    consecutive grids share ``window - 1`` points, so with a cache the
    first epoch simulates the whole window and every later epoch
    simulates *only the newly-entered points* — the load-point-granular
    profile cache doing incremental re-profiling. The per-epoch
    :class:`DriftEpochReport` carries the executed/cached split plus
    the re-derived loadlimits, the signal a production controller
    would redeploy on.
    """
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    if window < 3:
        raise ConfigurationError(
            f"window must be >= 3 (profiling needs 3 levels), got {window}"
        )
    if step <= 0 or drift_per_epoch < 0:
        raise ConfigurationError(
            f"step must be > 0 and drift >= 0, got {step}/{drift_per_epoch}"
        )
    top = start + (epochs - 1) * drift_per_epoch + (window - 1) * step
    if not (0.0 < start and top < 1.0):
        raise ConfigurationError(
            f"drift grid escapes (0, 1): starts {start}, tops out {top:.4f}"
        )
    spec = lc_service_spec(service)
    store = resolve_store(cache)
    reports: List[DriftEpochReport] = []
    for epoch in range(epochs):
        loads = drift_grid(epoch, start, step, window, drift_per_epoch)
        stats = ProfileStats()
        artifact = profile_service_parallel(
            spec,
            seed=seed,
            probe_slacklimits=probe_slacklimits,
            cache=store,
            config=RhythmConfig(
                loads=loads,
                requests_per_load=requests_per_load,
                tail_samples=tail_samples,
            ),
            stats=stats,
        )
        reports.append(
            DriftEpochReport(
                epoch=epoch,
                loads=loads,
                sweep_points=stats.sweep_points,
                sweep_executed=stats.sweep_executed,
                sweep_cache_hits=stats.sweep_cache_hits,
                artifact_cache_hits=stats.artifact_cache_hits,
                loadlimits=tuple(artifact.loadlimits),
            )
        )
    return DriftReport(service=spec.name, epochs=reports)


# -- capacity planning -----------------------------------------------------


@dataclass(frozen=True)
class CapacityRow:
    """One demand multiplier's sizing answer."""

    multiplier: float
    #: Aggregate demand in load units (sum of per-instance fractions).
    demand: float
    instances: int
    machines: int
    per_instance_load: float
    violation_rate: float


@dataclass
class CapacityReport:
    """Outcome of one capacity-planning what-if sweep."""

    service: str
    policy: str
    max_violation_rate: float
    rows: List[CapacityRow]

    def machines_needed(self) -> Tuple[Tuple[float, int], ...]:
        """(multiplier, machines) pairs, the headline planning curve."""
        return tuple((r.multiplier, r.machines) for r in self.rows)


def constant_fleet(
    n_instances: int,
    level: float,
    policy: str = "heracles",
    duration_s: float = 120.0,
    seed: int = 0,
    service: str = "Redis",
    config: Optional[FleetConfig] = None,
) -> FleetExperiment:
    """A uniform fleet: ``n_instances`` instances at constant ``level``.

    The capacity sweep's building block — per-instance seeds follow the
    ``alibaba_fleet`` convention (``seed * 1000 + k``) and BE mixes
    rotate through the catalog, so sizing runs exercise the same mix
    diversity as the synthetic trace fleet.
    """
    if n_instances < 1:
        raise ConfigurationError(
            f"n_instances must be >= 1, got {n_instances}"
        )
    if not (0.0 < level <= 1.0):
        raise ConfigurationError(
            f"per-instance load must be in (0, 1], got {level}"
        )
    policies = (
        rhythm_fleet_policies(service, seed=0)
        if policy == "rhythm"
        else heracles_fleet_policies(service)
    )
    instances = [
        FleetInstanceSpec(
            service=service,
            policies=tuple(sorted(policies.items())),
            be_jobs=_BE_MIXES[k % len(_BE_MIXES)],
            pattern=ConstantLoad(level),
            seed=seed * 1_000 + k,
        )
        for k in range(n_instances)
    ]
    return FleetExperiment(instances, config or FleetConfig(duration_s=duration_s))


def run_capacity(
    multipliers: Sequence[float] = (1.0, 1.5, 2.0),
    base_demand: float = 3.0,
    policy: str = "heracles",
    service: str = "Redis",
    duration_s: float = 120.0,
    seed: int = 0,
    max_violation_rate: float = 0.05,
    max_per_instance_load: float = 0.85,
    search_limit: int = 64,
    config: Optional[FleetConfig] = None,
    cache: Union[None, bool, CacheStore] = None,
) -> CapacityReport:
    """How many machines to serve N× the base demand at SLA.

    For each multiplier (ascending), spreads the aggregate demand
    ``base_demand * multiplier`` evenly over ``m`` instances
    (``ConstantLoad(demand / m)``) and grows ``m`` until the fleet's
    SLA-violation rate is at or under ``max_violation_rate``. The
    search starts from the previous multiplier's answer (never below
    the ``max_per_instance_load`` feasibility floor), so the curve is
    non-decreasing by construction and later multipliers reuse the
    earlier answer as their floor — exactly how an operator grows a
    fleet. With a cache, repeated sweeps (and shared fleet sizes across
    what-if variants) are served from the store.
    """
    if base_demand <= 0:
        raise ConfigurationError(
            f"base_demand must be > 0, got {base_demand}"
        )
    if not (0.0 <= max_violation_rate <= 1.0):
        raise ConfigurationError(
            f"max_violation_rate {max_violation_rate!r} out of [0, 1]"
        )
    if not (0.0 < max_per_instance_load <= 1.0):
        raise ConfigurationError(
            f"max_per_instance_load must be in (0, 1], got "
            f"{max_per_instance_load}"
        )
    ordered = sorted(float(m) for m in multipliers)
    if not ordered or ordered[0] <= 0:
        raise ConfigurationError("multipliers must be positive and non-empty")
    pods = len(lc_service_spec(service).servpod_names)
    rows: List[CapacityRow] = []
    floor = 1
    for multiplier in ordered:
        demand = base_demand * multiplier
        m = max(floor, math.ceil(demand / max_per_instance_load))
        answer: Optional[CapacityRow] = None
        while m <= search_limit:
            level = round(demand / m, 6)
            if level <= max_per_instance_load:
                fleet = constant_fleet(
                    m,
                    level,
                    policy=policy,
                    duration_s=duration_s,
                    seed=seed,
                    service=service,
                    config=config,
                )
                result = fleet.run(cache=cache)
                if result.sla_violation_rate <= max_violation_rate:
                    answer = CapacityRow(
                        multiplier=multiplier,
                        demand=demand,
                        instances=m,
                        machines=m * pods,
                        per_instance_load=level,
                        violation_rate=result.sla_violation_rate,
                    )
                    break
            m += 1
        if answer is None:
            raise ExperimentError(
                f"capacity search exhausted at {search_limit} instances for "
                f"multiplier {multiplier} (demand {demand:.2f})"
            )
        rows.append(answer)
        floor = answer.instances
    return CapacityReport(
        service=service,
        policy=policy,
        max_violation_rate=max_violation_rate,
        rows=rows,
    )
