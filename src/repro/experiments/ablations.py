"""Ablation studies on Rhythm's design choices.

The paper motivates several design decisions without isolating their
individual value; these experiments quantify each one at simulation
scale (see DESIGN.md §5 and ``benchmarks/bench_ablations.py``):

1. **Component-distinguishability** (§1's thesis). A component-blind
   controller must protect its most sensitive Servpod, so the fair
   "uniform Rhythm" ablation gives *every* machine the most conservative
   of the derived thresholds. The throughput gap to full Rhythm is the
   value of distinguishing components.
2. **Contribution definition** (§3.4: "Equation 5 may not be the only
   way"). Compares C = P, C = P·V, C = ρ·P·V against measured
   interference sensitivity, Figure-7 style.
3. **Isolation mechanisms** (§4). Disables CAT or cpuset isolation and
   measures the SLA damage under identical co-location pressure.
4. **CutBE escalation** (an implementation refinement within the paper's
   action vocabulary). Disables the pause-at-minimum ladder and measures
   production-ramp safety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bejobs.catalog import STREAM_DRAM
from repro.bejobs.spec import BeJobSpec
from repro.core.contribution import pearson
from repro.core.top_controller import ControllerThresholds, TopController
from repro.experiments.colocation import (
    ColocationConfig,
    ColocationExperiment,
    run_experiments,
)
from repro.experiments.runner import cell_experiment, get_rhythm
from repro.interference.isolation import IsolationConfig
from repro.loadgen.clarknet import clarknet_production_load
from repro.loadgen.patterns import LoadPattern
from repro.parallel.profile import profile_service_parallel
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import ecommerce_service
from repro.workloads.spec import ServiceSpec


# ---------------------------------------------------------------------------
# 1. Component-distinguishability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistinguishabilityResult:
    """Full Rhythm vs its component-blind twin on one scenario."""

    service: str
    be_job: str
    rhythm_emu: float
    uniform_emu: float
    rhythm_be_throughput: float
    uniform_be_throughput: float
    rhythm_violations: int
    uniform_violations: int

    @property
    def emu_gain(self) -> float:
        """What distinguishing components is worth, in relative EMU."""
        if self.uniform_emu <= 1e-9:
            return self.rhythm_emu
        return (self.rhythm_emu - self.uniform_emu) / self.uniform_emu


def uniform_rhythm_controllers(
    service: ServiceSpec, seed: int = 0
) -> Dict[str, TopController]:
    """The component-blind twin: every machine gets the *most
    conservative* of Rhythm's derived thresholds.

    Without per-component knowledge a safe controller must assume every
    machine hosts the worst component, which is exactly the paper's
    "Law of the Minimum" framing (§2).
    """
    artifact = profile_service_parallel(service, seed=seed, workers=1)
    min_loadlimit = min(artifact.loadlimit_map().values())
    max_slacklimit = max(artifact.slacklimit_map().values())
    thresholds = ControllerThresholds(
        loadlimit=min_loadlimit, slacklimit=max_slacklimit
    )
    return {
        pod: TopController(servpod=pod, thresholds=thresholds, sla_ms=service.sla_ms)
        for pod in service.servpod_names
    }


def run_distinguishability_ablation(
    service: Optional[ServiceSpec] = None,
    be_spec: BeJobSpec = STREAM_DRAM,
    duration_s: float = 600.0,
    seed: int = 0,
    pattern: Optional[LoadPattern] = None,
) -> DistinguishabilityResult:
    """Rhythm vs uniform-Rhythm under a production day."""
    spec = service or ecommerce_service()
    pattern = pattern or clarknet_production_load(duration_s=duration_s, days=1)
    config = ColocationConfig(duration_s=duration_s)
    artifact = profile_service_parallel(spec, seed=seed, workers=1)
    rhythm_result, uniform_result = run_experiments(
        [
            cell_experiment(
                spec, artifact.controllers(), be_spec, pattern,
                seed=seed, config=config,
            ),
            cell_experiment(
                spec, uniform_rhythm_controllers(spec, seed), be_spec, pattern,
                seed=seed, config=config,
            ),
        ]
    )
    return DistinguishabilityResult(
        service=spec.name,
        be_job=be_spec.name,
        rhythm_emu=rhythm_result.emu,
        uniform_emu=uniform_result.emu,
        rhythm_be_throughput=rhythm_result.be_throughput,
        uniform_be_throughput=uniform_result.be_throughput,
        rhythm_violations=rhythm_result.sla_violations,
        uniform_violations=uniform_result.sla_violations,
    )


# ---------------------------------------------------------------------------
# 2. Contribution definition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContributionDefinitionResult:
    """Correlation of each candidate C_i definition with sensitivity."""

    service: str
    #: Pearson r between the definition's C_i and the measured p99
    #: increase when only that Servpod is interfered (Figure-7 style).
    correlations: Dict[str, float]

    @property
    def best(self) -> str:
        """The definition most predictive of interference sensitivity."""
        return max(self.correlations, key=self.correlations.get)


def run_contribution_definition_ablation(
    service: Optional[ServiceSpec] = None,
    load: float = 0.7,
    samples: int = 5000,
    seed: int = 0,
) -> ContributionDefinitionResult:
    """Compare C = P, C = P·V, and C = ρ·P·V (Eq. 4)."""
    from repro.experiments.figures.figure7 import FIGURE7_PRESSURES
    from repro.cluster.machine import Machine
    from repro.core.servpod import Servpod
    from repro.interference.model import InterferenceModel
    from repro.metrics.percentile import percentile
    from repro.workloads.service import Service, ServiceState

    spec = service or ecommerce_service()
    rhythm = get_rhythm(spec, seed=seed, probe_slacklimits=False)
    contributions = rhythm.contributions().contributions

    definitions: Dict[str, Dict[str, float]] = {
        "P": {pod: c.mean_weight for pod, c in contributions.items()},
        "P*V": {pod: c.mean_weight * c.variation for pod, c in contributions.items()},
        "rho*P*V (Eq.4)": {
            pod: c.contribution for pod, c in contributions.items()
        },
    }

    # Measured sensitivity per Servpod under the mixed-pressure panel.
    model = InterferenceModel()
    pressure = FIGURE7_PRESSURES["mixed"]
    solo = Service(spec, RandomStreams(seed))
    p99_solo = float(percentile(solo.sample_e2e(load, samples), spec.tail_percentile))
    sensitivity: Dict[str, float] = {}
    for pod_spec in spec.servpods:
        servpod = Servpod(spec=pod_spec, machine=Machine())
        slowdown = servpod.slowdown(pressure, load, model)
        state = ServiceState(
            slowdowns={pod_spec.name: slowdown},
            sigma_inflations={pod_spec.name: model.sigma_inflation(slowdown)},
        )
        svc = Service(spec, RandomStreams(seed))
        p99 = float(
            percentile(svc.sample_e2e(load, samples, state), spec.tail_percentile)
        )
        sensitivity[pod_spec.name] = (p99 - p99_solo) / p99_solo

    pods = spec.servpod_names
    correlations = {
        name: pearson([values[p] for p in pods], [sensitivity[p] for p in pods])
        for name, values in definitions.items()
    }
    return ContributionDefinitionResult(service=spec.name, correlations=correlations)


# ---------------------------------------------------------------------------
# 3. Isolation mechanisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsolationAblationRow:
    """One isolation configuration's outcome."""

    label: str
    worst_tail_over_sla: float
    sla_violations: int
    be_throughput: float


def run_isolation_ablation(
    service: Optional[ServiceSpec] = None,
    be_spec: BeJobSpec = STREAM_DRAM,
    load: float = 0.65,
    duration_s: float = 120.0,
    seed: int = 0,
) -> List[IsolationAblationRow]:
    """Disable CAT / cpuset isolation and measure the SLA damage."""
    from repro.loadgen.patterns import ConstantLoad

    spec = service or ecommerce_service()
    controllers = profile_service_parallel(spec, seed=seed, workers=1).controllers
    configs = [
        ("full isolation", IsolationConfig()),
        ("no CAT", IsolationConfig(cat=False)),
        ("no cpuset", IsolationConfig(cpuset=False)),
        ("no CAT, no cpuset", IsolationConfig(cat=False, cpuset=False)),
    ]
    rows: List[IsolationAblationRow] = []
    for label, isolation in configs:
        experiment = ColocationExperiment(
            spec,
            controllers(),
            [be_spec],
            ConstantLoad(load),
            streams=RandomStreams(seed),
            config=ColocationConfig(duration_s=duration_s, isolation=isolation),
        )
        result = experiment.run()
        rows.append(
            IsolationAblationRow(
                label=label,
                worst_tail_over_sla=result.worst_tail_ms / spec.sla_ms,
                sla_violations=result.sla_violations,
                be_throughput=result.be_throughput,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# 4. CutBE escalation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutLadderResult:
    """Production-day safety with and without CutBE's pause escalation."""

    with_escalation_violations: int
    without_escalation_violations: int
    with_escalation_worst: float
    without_escalation_worst: float


def run_cut_escalation_ablation(
    service: Optional[ServiceSpec] = None,
    be_spec: BeJobSpec = STREAM_DRAM,
    duration_s: float = 600.0,
    seed: int = 0,
) -> CutLadderResult:
    """Run the same production day with CutBE escalation on and off."""
    spec = service or ecommerce_service()
    pattern = clarknet_production_load(duration_s=duration_s, days=1)
    artifact = profile_service_parallel(spec, seed=seed, workers=1)
    outcomes = {}
    for escalate in (True, False):
        experiment = ColocationExperiment(
            spec,
            artifact.controllers(),
            [be_spec],
            pattern,
            streams=RandomStreams(seed),
            config=ColocationConfig(duration_s=duration_s, cut_escalation=escalate),
        )
        outcomes[escalate] = experiment.run()
    return CutLadderResult(
        with_escalation_violations=outcomes[True].sla_violations,
        without_escalation_violations=outcomes[False].sla_violations,
        with_escalation_worst=outcomes[True].worst_tail_ms / spec.sla_ms,
        without_escalation_worst=outcomes[False].worst_tail_ms / spec.sla_ms,
    )
