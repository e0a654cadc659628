"""Single-pass controller bake-off over a seeded scenario grid.

N *members* (controller families — Rhythm's profiled thresholds,
Heracles' uniform ones, the interference-scoring and PCS-style
predictive baselines) run over the same seeded scenarios in one
:class:`~repro.sim.kernel.FleetColocationKernel` pass: every pending
(scenario, member) cell is one slot of the kernel, the members of a
scenario start aliased to one live slot and fork only when their
decisions differ in effect, and the per-cell summaries fold into a
league table.

Identity contract (the repo-wide pattern): every member's summary —
result fingerprint *and* final RNG stream states — is bit-identical to
running that member alone through a fresh
:class:`~repro.experiments.colocation.ColocationExperiment`
(:func:`run_member_reference`), on either kernel;
``tests/test_bakeoff.py`` pins this against the scalar engine,
in-process, across fork/spawn, and under fault schedules.

**Incremental runs.** :func:`run_bakeoff` memoizes per *cell* — one
(scenario, member) pair — in the content-addressed
:class:`~repro.cache.store.CacheStore`, keyed by
:func:`bakeoff_cell_key`. The member (the controller identity and every
threshold inside it) IS a key coordinate; the pass then runs only the
cells that missed, which is safe precisely because of the identity
contract: a member's results cannot depend on who else shared the
pass. A fully warm league table executes zero simulations.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.interference import (
    InterferencePolicy,
    interference_controllers,
)
from repro.baselines.predictive import PredictivePolicy, predictive_controllers
from repro.cache import (
    CacheOutcomes,
    CacheStore,
    cache_lookup,
    resolve_store,
    stable_hash,
)
from repro.core.controller import ColocationController
from repro.core.top_controller import CONTROL_PERIOD_S
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.colocation import (
    ColocationConfig,
    ColocationExperiment,
    ColocationResult,
    check_clock,
    result_digest,
)
from repro.experiments.fleet import PodPolicy
from repro.faults.spec import FaultSchedule
from repro.loadgen.patterns import DiurnalLoad, LoadPattern
from repro.sim.kernel import FleetColocationKernel
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import service_spec
from repro.workloads.spec import ServiceSpec


# -- members --------------------------------------------------------------

_MEMBER_KINDS = ("policies", "interference", "predictive")


@dataclass(frozen=True)
class BakeoffMember:
    """One controller family in shippable, cache-keyable form.

    ``kind`` selects how controllers are rebuilt: ``"policies"`` plays
    distilled per-pod :class:`~repro.experiments.fleet.PodPolicy`
    thresholds (Rhythm's profiled ones, Heracles' uniform ones) through
    :class:`~repro.core.top_controller.TopController`;
    ``"interference"`` and ``"predictive"`` build the scoring baselines
    from their frozen policy dataclasses. Everything here is a value,
    so the member hashes into :func:`bakeoff_cell_key` — two members
    with the same name but different thresholds get different keys.
    """

    name: str
    kind: str
    policies: Optional[Tuple[Tuple[str, PodPolicy], ...]] = None
    interference: Optional[InterferencePolicy] = None
    predictive: Optional[PredictivePolicy] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("bake-off member needs a name")
        if self.kind not in _MEMBER_KINDS:
            raise ConfigurationError(
                f"member kind must be one of {_MEMBER_KINDS}, got {self.kind!r}"
            )
        if self.kind == "policies" and not self.policies:
            raise ConfigurationError(
                f"member {self.name!r}: kind 'policies' needs per-pod policies"
            )

    def build_controllers(
        self, service: ServiceSpec
    ) -> Dict[str, ColocationController]:
        """Fresh (history-free) controllers for every pod of ``service``."""
        if self.kind == "policies":
            policies = dict(self.policies)
            missing = set(service.servpod_names) - set(policies)
            if missing:
                raise ExperimentError(
                    f"member {self.name!r}: no policy for Servpods "
                    f"{sorted(missing)}"
                )
            return {
                pod: policies[pod].build(pod, service.sla_ms)
                for pod in service.servpod_names
            }
        if self.kind == "interference":
            return interference_controllers(
                service, self.interference or InterferencePolicy()
            )
        return predictive_controllers(
            service, self.predictive or PredictivePolicy()
        )


def rhythm_member(
    service_name: str,
    seed: int = 0,
    name: str = "rhythm",
    probe_slacklimits: bool = False,
) -> BakeoffMember:
    """Rhythm's profiled per-pod thresholds as a bake-off member.

    Profiles once (memoized, inline) in the caller, and ships
    the distilled policies — the fleet convention, so the member's key
    captures the actual thresholds, not the profiling recipe.
    Slacklimits are the analytic fixed point unless
    ``probe_slacklimits`` asks for Algorithm 1's SLA probe.
    """
    from repro.experiments.fleet import rhythm_fleet_policies

    policies = rhythm_fleet_policies(
        service_name, seed=seed, probe_slacklimits=probe_slacklimits
    )
    return BakeoffMember(
        name=name, kind="policies", policies=tuple(sorted(policies.items()))
    )


def heracles_member(service_name: str, name: str = "heracles") -> BakeoffMember:
    """Heracles' uniform thresholds as a bake-off member."""
    from repro.experiments.fleet import heracles_fleet_policies

    return BakeoffMember(
        name=name,
        kind="policies",
        policies=tuple(sorted(heracles_fleet_policies(service_name).items())),
    )


def interference_member(
    policy: Optional[InterferencePolicy] = None, name: str = "interference"
) -> BakeoffMember:
    """The Alibaba-style interference-scoring baseline as a member."""
    return BakeoffMember(
        name=name, kind="interference", interference=policy or InterferencePolicy()
    )


def predictive_member(
    policy: Optional[PredictivePolicy] = None, name: str = "predictive"
) -> BakeoffMember:
    """The PCS-style predicted-slack baseline as a member."""
    return BakeoffMember(
        name=name, kind="predictive", predictive=policy or PredictivePolicy()
    )


def default_members(service_name: str, seed: int = 0) -> List[BakeoffMember]:
    """The standard four-way bake-off roster for ``service_name``."""
    return [
        rhythm_member(service_name, seed=seed),
        heracles_member(service_name),
        interference_member(),
        predictive_member(),
    ]


# -- scenarios ------------------------------------------------------------


@dataclass(frozen=True)
class BakeoffScenario:
    """One seeded co-location scenario every member runs through."""

    #: Service name, resolved by :func:`~repro.workloads.catalog.service_spec`.
    service: str
    #: BE job catalog names co-located on the machines.
    be_jobs: Tuple[str, ...]
    #: The scenario's request-load trace.
    pattern: LoadPattern
    #: Root seed of the scenario's RNG streams (shared by all members).
    seed: int = 0
    #: Optional fault schedule injected mid-run.
    faults: Optional[FaultSchedule] = None
    #: Display label (league table rows); NOT a cache-key coordinate.
    label: str = ""


@dataclass(frozen=True)
class BakeoffConfig:
    """Bake-off-level tunables (per-run knobs ride on ColocationConfig)."""

    duration_s: float = 120.0
    control_period_s: float = CONTROL_PERIOD_S
    sample_cap: int = 800
    min_samples: int = 100
    max_be_instances: int = 16

    def __post_init__(self) -> None:
        check_clock(self.duration_s, self.control_period_s)

    def colocation_config(self, scenario: BakeoffScenario) -> ColocationConfig:
        """The per-run config this bake-off config induces."""
        return ColocationConfig(
            duration_s=self.duration_s,
            control_period_s=self.control_period_s,
            sample_cap=self.sample_cap,
            min_samples=self.min_samples,
            max_be_instances=self.max_be_instances,
            faults=scenario.faults,
            seed=scenario.seed,
        )


def bakeoff_scenario_grid(
    service: str = "Redis",
    loads: Sequence[float] = (0.25, 0.45, 0.65),
    be_jobs: Sequence[str] = ("stream-llc", "wordcount"),
    duration_s: float = 120.0,
    seed: int = 0,
    faults_per_minute: float = 0.0,
) -> List[BakeoffScenario]:
    """A seeded scenario grid: one diurnal cycle per load point.

    Every scenario gets its own RNG seed (``seed * 1_000 + index``, the
    fleet convention) and, with ``faults_per_minute > 0``, its own
    seeded fault schedule — so the same arguments always build the same
    grid, byte for byte.
    """
    if not loads:
        raise ConfigurationError("need at least one load point")
    check_clock(duration_s)
    if not (math.isfinite(faults_per_minute) and faults_per_minute >= 0):
        raise ConfigurationError(
            f"faults_per_minute must be finite and >= 0, got {faults_per_minute!r}"
        )
    scenarios: List[BakeoffScenario] = []
    for i, load in enumerate(loads):
        faults = (
            FaultSchedule.generate(
                seed * 1_000 + i + 1, duration_s, faults_per_minute=faults_per_minute
            )
            if faults_per_minute > 0
            else None
        )
        scenarios.append(
            BakeoffScenario(
                service=service,
                be_jobs=tuple(be_jobs),
                pattern=DiurnalLoad(
                    base=load, amplitude=0.10, period_s=duration_s
                ),
                seed=seed * 1_000 + i,
                faults=faults,
                label=f"{service}@{load:.2f}" + ("+faults" if faults else ""),
            )
        )
    return scenarios


# -- cache keys and summaries ---------------------------------------------


def bakeoff_cell_key(
    scenario: BakeoffScenario, member: BakeoffMember, config: BakeoffConfig
) -> str:
    """The content address of one (scenario, member) bake-off cell.

    The **member is a key coordinate** — the controller's identity and
    every threshold inside it determine the cell's results, so a
    retuned policy misses cleanly. Deliberately NOT coordinates:

    - the scenario ``label`` — cosmetic; entries are stored label-free
      and rebased on load, so renaming a row cannot force a re-run;
    - the *roster* — who else shares the scenario's pass; the identity
      contract makes a member's results roster-independent;
    - worker/shard counts and the kernel choice — the repo-wide policy
      for pure wall-clock knobs (cf. ``zone_cache_key``).

    Raises :class:`~repro.errors.CacheKeyError` for unhashable
    scenarios (e.g. a pattern wrapping a bare callable); such cells
    simply run uncached.
    """
    return stable_hash(
        (
            "bakeoff-cell",
            scenario.service,
            scenario.be_jobs,
            scenario.pattern,
            scenario.seed,
            scenario.faults,
            member,
            config.duration_s,
            config.control_period_s,
            config.sample_cap,
            config.min_samples,
            config.max_be_instances,
        )
    )


@dataclass(frozen=True)
class BakeoffCellSummary:
    """The reported slice of one member's result on one scenario."""

    scenario: str
    member: str
    service: str
    sla_ms: float
    sla_violations: int
    worst_tail_ms: float
    be_throughput: float
    emu: float
    cpu_utilisation: float
    be_kills: int
    be_suspensions: int
    events_fired: int
    #: :func:`~repro.experiments.colocation.result_digest` of the cell —
    #: the bit-identity coordinate the bake-off identity tests pin
    #: against independent per-member runs.
    digest: str


def _summarise(
    scenario: BakeoffScenario,
    member_name: str,
    service: ServiceSpec,
    streams: RandomStreams,
    result: ColocationResult,
) -> BakeoffCellSummary:
    return BakeoffCellSummary(
        scenario=scenario.label,
        member=member_name,
        service=scenario.service,
        sla_ms=service.sla_ms,
        sla_violations=result.sla_violations,
        worst_tail_ms=result.worst_tail_ms,
        be_throughput=result.be_throughput,
        emu=result.emu,
        cpu_utilisation=result.cpu_utilisation,
        be_kills=result.be_kills,
        be_suspensions=result.be_suspensions,
        events_fired=result.events_fired,
        digest=result_digest(streams, result),
    )


# -- results --------------------------------------------------------------


@dataclass(frozen=True)
class LeagueRow:
    """One member's aggregate line across every scenario."""

    rank: int
    member: str
    scenarios: int
    sla_violations: int
    worst_tail_over_sla: float
    be_throughput: float
    emu: float
    be_kills: int


@dataclass
class BakeoffResult:
    """Outcome of one bake-off: cells in (scenario, member) order."""

    duration_s: float
    members: List[str]
    cells: List[BakeoffCellSummary]
    #: Cell-level cache accounting, or None when the run was uncached.
    cache: Optional[CacheOutcomes] = None
    #: Scenarios simulated (0 on a fully warm run).
    passes: int = 0
    #: Divergence forks / re-merges across the pass.
    forks: int = 0
    merges: int = 0
    #: Slot-ticks actually simulated vs. the member-ticks an
    #: independent-runs sweep of the same pending cells would cost.
    branch_ticks: int = 0
    member_ticks: int = 0

    @property
    def shared_fraction(self) -> float:
        """Fraction of independent-equivalent physics shared away."""
        if not self.member_ticks:
            return 0.0
        return 1.0 - self.branch_ticks / self.member_ticks

    @property
    def digest(self) -> str:
        """Order-sensitive fold of every cell digest (bit-identity)."""
        h = hashlib.sha256()
        for cell in self.cells:
            h.update(cell.digest.encode("ascii"))
        return h.hexdigest()

    def league(self) -> List[LeagueRow]:
        """Aggregate rows ranked by SLA violations, then EMU.

        Violations total across scenarios; throughput/EMU average;
        ``worst_tail_over_sla`` is the worst ratio seen anywhere.
        """
        rows = []
        for name in self.members:
            cells = [c for c in self.cells if c.member == name]
            if not cells:
                continue
            rows.append(
                (
                    sum(c.sla_violations for c in cells),
                    -sum(c.emu for c in cells) / len(cells),
                    name,
                    cells,
                )
            )
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        return [
            LeagueRow(
                rank=i + 1,
                member=name,
                scenarios=len(cells),
                sla_violations=violations,
                worst_tail_over_sla=max(
                    c.worst_tail_ms / c.sla_ms for c in cells
                ),
                be_throughput=sum(c.be_throughput for c in cells) / len(cells),
                emu=-neg_emu,
                be_kills=sum(c.be_kills for c in cells),
            )
            for i, (violations, neg_emu, name, cells) in enumerate(rows)
        ]


# -- the bake-off driver --------------------------------------------------


def _build_root(
    scenario: BakeoffScenario,
    member: BakeoffMember,
    service: ServiceSpec,
    run_config: ColocationConfig,
) -> ColocationExperiment:
    from repro.bejobs.catalog import be_job_spec

    return ColocationExperiment(
        service,
        member.build_controllers(service),
        [be_job_spec(name) for name in scenario.be_jobs],
        scenario.pattern,
        streams=RandomStreams(scenario.seed),
        config=run_config,
    )


def run_member_reference(
    scenario: BakeoffScenario,
    member: BakeoffMember,
    config: Optional[BakeoffConfig] = None,
) -> BakeoffCellSummary:
    """One member alone through a fresh experiment — the identity oracle."""
    config = config or BakeoffConfig()
    service = service_spec(scenario.service)
    experiment = _build_root(
        scenario, member, service, config.colocation_config(scenario)
    )
    result = experiment.run()
    return _summarise(scenario, member.name, service, experiment.streams, result)


def run_bakeoff(
    scenarios: Sequence[BakeoffScenario],
    members: Sequence[BakeoffMember],
    config: Optional[BakeoffConfig] = None,
    cache: Union[None, bool, CacheStore] = None,
) -> BakeoffResult:
    """Run every member over every scenario in one kernel pass.

    ``cache`` follows the grid convention: ``None``/``False`` run
    uncached, ``True`` uses the environment-default store, a
    :class:`CacheStore` is used as given. Cached cells are served
    without simulating; the pass covers exactly the cells that missed
    (safe by the identity contract — see module docstring), one kernel
    slot each, with a scenario's slots aliased to its first. A fully
    warm run reports ``passes == 0`` and reproduces the cold digest
    bit-identically.
    """
    if not scenarios:
        raise ConfigurationError("bake-off needs at least one scenario")
    if not members:
        raise ConfigurationError("bake-off needs at least one member")
    names = [m.name for m in members]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate member names in {names}")
    config = config or BakeoffConfig()
    store = resolve_store(cache)
    stats = CacheOutcomes()
    result = BakeoffResult(
        duration_s=config.duration_s,
        members=names,
        cells=[],
        cache=stats if store is not None else None,
    )
    by_cell: Dict[Tuple[int, str], BakeoffCellSummary] = {}
    keys: Dict[Tuple[int, str], Optional[str]] = {}
    # Pending cells in (scenario, member) order, their experiments, and
    # each experiment's alias: the scenario's first pending slot.
    pending: List[Tuple[int, BakeoffMember]] = []
    experiments: List[ColocationExperiment] = []
    aliases: List[int] = []
    for s, scenario in enumerate(scenarios):
        service = service_spec(scenario.service)
        run_config = config.colocation_config(scenario)
        head = len(experiments)
        for member in members:
            keys[s, member.name], cached = cache_lookup(
                store,
                lambda: bakeoff_cell_key(scenario, member, config),
                lambda entry: isinstance(entry, BakeoffCellSummary),
                stats,
            )
            if cached is not None:
                by_cell[s, member.name] = replace(cached, scenario=scenario.label)
            else:
                pending.append((s, member))
                aliases.append(head)
                experiments.append(_build_root(scenario, member, service, run_config))
    if experiments:
        kernel = FleetColocationKernel(experiments, aliases=aliases)
        run_results = kernel.run()
        result.passes = len(set(aliases))
        result.forks = kernel.forks
        result.merges = kernel.merges
        result.branch_ticks = kernel.slot_ticks
        result.member_ticks = run_results[0].events_fired * len(experiments)
        for c, (s, member) in enumerate(pending):
            scenario = scenarios[s]
            summary = _summarise(
                scenario,
                member.name,
                service_spec(scenario.service),
                kernel.member_world(c).streams,
                run_results[c],
            )
            by_cell[s, member.name] = summary
            key = keys[s, member.name]
            if key is not None:
                # Label-free entry: the label is not a key coordinate,
                # so it must not be baked in either.
                store.put(key, replace(summary, scenario=""))
    for s in range(len(scenarios)):
        result.cells.extend(by_cell[s, name] for name in names)
    return result
