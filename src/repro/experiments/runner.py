"""Rhythm-vs-Heracles comparison machinery.

The evaluation grids (Figures 9–14) run the same (LC service, BE job,
load) cell once under each system and report relative improvements. This
module provides the cell runner, the batched comparison every grid cell
runs, and the serial reference profiling pipeline. Callers that need
Rhythm's thresholds take the profiled artifact from
:func:`repro.parallel.profile.profile_service_parallel`, whose memo
profiles each service once per process, exactly as the paper's "profile
once" design intends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.heracles import HeraclesPolicy, heracles_controllers
from repro.bejobs.spec import BeJobSpec
from repro.core.rhythm import Rhythm, RhythmConfig
from repro.core.top_controller import TopController
from repro.errors import ExperimentError
from repro.experiments.colocation import (
    ColocationConfig,
    ColocationExperiment,
    ColocationResult,
    result_digest,
    run_experiments,
)
from repro.loadgen.patterns import ConstantLoad, LoadPattern
from repro.sim.rng import RandomStreams
from repro.workloads.catalog import service_profiling_mode
from repro.workloads.spec import ServiceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.artifact import RhythmArtifact


def sla_probe_for(
    service: ServiceSpec,
    loadlimits: Mapping[str, float],
    seed: int = 0,
    probe_duration_s: float = 600.0,
):
    """Algorithm 1's SLA probe, exactly as ``get_rhythm`` builds it.

    Factored out so the parallel profiling pipeline
    (:mod:`repro.parallel.profile`) can rebuild an identical probe
    inside a worker process: same evaluation BE mix, same
    production-load pattern (peaking at 85% of MaxLoad — co-location is
    suspended above the loadlimits anyway, so probing beyond only
    measures solo-run peak tails, which graze the SLA by design and
    would mask BE-induced risk), same probe stream registry.
    """
    from repro.bejobs.catalog import evaluation_be_jobs
    from repro.experiments.colocation import ColocationConfig, make_sla_probe
    from repro.loadgen.clarknet import clarknet_production_load

    return make_sla_probe(
        service,
        dict(loadlimits),
        evaluation_be_jobs(),
        clarknet_production_load(
            duration_s=probe_duration_s,
            peak_fraction=0.85,
            seed=seed + 17,
            days=1,
        ),
        RandomStreams(seed + 1),
        config=ColocationConfig(duration_s=probe_duration_s),
    )


def get_rhythm(
    service: ServiceSpec,
    seed: int = 0,
    config: Optional[RhythmConfig] = None,
    probe_slacklimits: bool = True,
    probe_duration_s: float = 600.0,
) -> Rhythm:
    """A freshly profiled Rhythm pipeline for ``service`` (uncached).

    The serial reference for the profiled artifact: the parallel
    pipeline must reproduce its thresholds bit for bit (see
    :func:`repro.parallel.artifact.artifact_for`). The profiling mode
    comes from :func:`~repro.workloads.catalog.service_profiling_mode`;
    ``config`` supplies the rest of the recipe. With
    ``probe_slacklimits`` (the default, matching the paper's
    methodology) Algorithm 1 runs against a production-load SLA probe
    with mixed BE jobs; otherwise the analytic violation-free fixed
    point is used.
    """
    cfg = replace(
        config or RhythmConfig(), profiling_mode=service_profiling_mode(service)
    )
    rhythm = Rhythm(service, RandomStreams(seed), cfg)
    rhythm.profile()
    if probe_slacklimits:
        rhythm.slacklimits(
            sla_probe_for(
                service,
                rhythm.loadlimits(),
                seed=seed,
                probe_duration_s=probe_duration_s,
            )
        )
    return rhythm


def clear_rhythm_cache() -> None:
    """Drop the in-process artifact memo.

    The old name of :func:`repro.parallel.profile.clear_profile_memo`.
    Only ``repobench/workloads.py`` still imports it; the next change to
    that benchmark drops this alias.
    """
    from repro.parallel.profile import clear_profile_memo

    clear_profile_memo()


def cell_experiment(
    service: ServiceSpec,
    controllers: Mapping[str, TopController],
    be_spec: BeJobSpec,
    pattern: LoadPattern,
    seed: int = 0,
    config: Optional[ColocationConfig] = None,
    kernel: Optional[str] = None,
) -> ColocationExperiment:
    """One (service, BE, load pattern) cell under one controller set.

    ``kernel`` selects the simulation kernel for this cell (default:
    the ``RHYTHM_KERNEL`` environment variable, else batched). Results
    are bit-identical across kernels, so cached cells are shared.
    """
    return ColocationExperiment(
        service,
        controllers,
        [be_spec],
        pattern,
        streams=RandomStreams(seed),
        config=config,
        kernel=kernel,
    )


def run_cell(
    service: ServiceSpec,
    controllers: Mapping[str, TopController],
    be_spec: BeJobSpec,
    pattern: LoadPattern,
    seed: int = 0,
    config: Optional[ColocationConfig] = None,
    kernel: Optional[str] = None,
) -> ColocationResult:
    """Run one :func:`cell_experiment` on its own."""
    return cell_experiment(
        service, controllers, be_spec, pattern, seed, config, kernel
    ).run()


def kernel_identity_probe(
    kernel: str,
    seed: int = 0,
    pattern_name: str = "constant",
    with_faults: bool = False,
    duration_s: float = 60.0,
) -> str:
    """Run one small colocation cell under ``kernel`` and digest it.

    Importable by reference (spawn-safe), so the kernel-identity tests
    and benchmark can execute it in fork- and spawn-started subprocesses
    and compare its :func:`~repro.experiments.colocation.result_digest`
    (the full result plus the final state of every RNG stream) across
    kernels. Uses the Heracles controller set — the probe exercises the
    simulation kernel, not the profiling pipeline.
    """
    from repro.baselines.heracles import heracles_controllers
    from repro.bejobs.catalog import evaluation_be_jobs
    from repro.faults.spec import FaultSchedule
    from repro.loadgen.patterns import ConstantLoad, DiurnalLoad, StepLoad, SweepLoad
    from repro.workloads.catalog import redis_service

    patterns = {
        "constant": lambda: ConstantLoad(0.55),
        "step": lambda: StepLoad([(0.0, 0.3), (duration_s / 3, 0.8), (2 * duration_s / 3, 0.5)]),
        "sweep": lambda: SweepLoad(0.2, 0.9, duration_s),
        "diurnal": lambda: DiurnalLoad(base=0.5, amplitude=0.3, period_s=duration_s),
    }
    if pattern_name not in patterns:
        raise ExperimentError(f"unknown probe pattern {pattern_name!r}")
    service = redis_service()
    faults = (
        FaultSchedule.generate(seed + 1, duration_s, faults_per_minute=4.0)
        if with_faults
        else None
    )
    experiment = ColocationExperiment(
        service,
        heracles_controllers(service),
        [evaluation_be_jobs()[0]],
        patterns[pattern_name](),
        streams=RandomStreams(seed),
        config=ColocationConfig(duration_s=duration_s, faults=faults),
        kernel=kernel,
    )
    return result_digest(experiment.streams, experiment.run())


@dataclass
class ComparisonResult:
    """One grid cell under both systems, with relative improvements."""

    service: str
    be_job: str
    load: float
    rhythm: ColocationResult
    heracles: ColocationResult

    @staticmethod
    def _improvement(new: float, old: float) -> float:
        """(new − old) / old, with a 0-denominator convention.

        When the baseline is zero (e.g. Heracles at 85% load) the paper
        plots the absolute Rhythm value; we return ``new`` directly,
        which preserves "Rhythm wins" ordering.
        """
        if old <= 1e-9:
            return new
        return (new - old) / old

    @property
    def emu_improvement(self) -> float:
        """Relative EMU gain of Rhythm over Heracles."""
        return self._improvement(self.rhythm.emu, self.heracles.emu)

    @property
    def be_throughput_gain(self) -> float:
        """Absolute BE-throughput gain (the Figure 9 quantity)."""
        return self.rhythm.be_throughput - self.heracles.be_throughput

    @property
    def cpu_improvement(self) -> float:
        """Relative CPU-utilisation gain."""
        return self._improvement(
            self.rhythm.cpu_utilisation, self.heracles.cpu_utilisation
        )

    @property
    def membw_improvement(self) -> float:
        """Relative memory-bandwidth-utilisation gain."""
        return self._improvement(
            self.rhythm.membw_utilisation, self.heracles.membw_utilisation
        )


@dataclass(frozen=True)
class CellComparison:
    """One cell of a Rhythm-vs-Heracles comparison: what both runs need.

    ``pattern`` defaults to ``ConstantLoad(load)``; Rhythm's thresholds
    come from ``artifact``.
    """

    service: ServiceSpec
    artifact: "RhythmArtifact"
    be_spec: BeJobSpec
    load: float
    seed: int = 0
    config: Optional[ColocationConfig] = None
    pattern: Optional[LoadPattern] = None
    heracles_policy: HeraclesPolicy = HeraclesPolicy()

    def experiments(self) -> Tuple[ColocationExperiment, ColocationExperiment]:
        """The cell's Rhythm and Heracles experiments, seeds matched."""
        pattern = self.pattern
        if pattern is None:
            if not (0.0 <= self.load <= 1.0):
                raise ExperimentError(f"load must be in [0,1], got {self.load!r}")
            pattern = ConstantLoad(self.load)
        return (
            cell_experiment(
                self.service,
                self.artifact.controllers(),
                self.be_spec,
                pattern,
                seed=self.seed,
                config=self.config,
            ),
            cell_experiment(
                self.service,
                heracles_controllers(self.service, self.heracles_policy),
                self.be_spec,
                pattern,
                seed=self.seed,
                config=self.config,
            ),
        )


def compare_cells(cells: Sequence[CellComparison]) -> List[ComparisonResult]:
    """Run every cell under Rhythm and Heracles; results in input order.

    All the cells' simulations, both systems, go to one
    :func:`~repro.experiments.colocation.run_experiments` call, so on
    the batched kernel they tick as one fleet (the cells must share one
    clock). Each result is bit-identical to running the cell alone.
    Every comparison, serial or from a grid worker, runs through here.
    """
    cells = list(cells)
    results = run_experiments(
        [exp for cell in cells for exp in cell.experiments()]
    )
    return [
        ComparisonResult(
            service=cell.service.name,
            be_job=cell.be_spec.name,
            load=cell.load,
            rhythm=results[2 * i],
            heracles=results[2 * i + 1],
        )
        for i, cell in enumerate(cells)
    ]


def compare_with_artifact(
    service: ServiceSpec,
    artifact: "RhythmArtifact",
    be_spec: BeJobSpec,
    load: float,
    seed: int = 0,
    config: Optional[ColocationConfig] = None,
    pattern: Optional[LoadPattern] = None,
    heracles_policy: HeraclesPolicy = HeraclesPolicy(),
) -> ComparisonResult:
    """Run one cell under Rhythm (thresholds from ``artifact``) and
    Heracles with matched seeds: the one-cell :func:`compare_cells`."""
    return compare_cells(
        [
            CellComparison(
                service,
                artifact,
                be_spec,
                load,
                seed=seed,
                config=config,
                pattern=pattern,
                heracles_policy=heracles_policy,
            )
        ]
    )[0]


def compare_systems(
    service: ServiceSpec,
    be_spec: BeJobSpec,
    load: float,
    seed: int = 0,
    config: Optional[ColocationConfig] = None,
    pattern: Optional[LoadPattern] = None,
    heracles_policy: HeraclesPolicy = HeraclesPolicy(),
) -> ComparisonResult:
    """Profile ``service`` (memoized, inline) and compare one cell."""
    from repro.parallel.profile import profile_service_parallel

    artifact = profile_service_parallel(service, seed=seed, workers=1)
    return compare_with_artifact(
        service, artifact, be_spec, load, seed, config, pattern, heracles_policy
    )
