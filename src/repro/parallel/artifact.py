"""Frozen, picklable Rhythm profiling artifacts.

A live :class:`~repro.core.rhythm.Rhythm` pipeline holds its profiler,
traces and RNG registries, which makes it expensive to keep or ship. A
:class:`RhythmArtifact` is the distillation the paper's "profile once"
design actually needs at runtime: the per-Servpod loadlimits,
slacklimits and contribution scores plus enough metadata to rebuild the
per-machine top controllers anywhere.
:func:`repro.parallel.profile.profile_service_parallel` builds one per
service for every caller that needs thresholds; the grid engine ships
only artifacts across the pool boundary. :func:`artifact_for` freezes
the serial reference pipeline into the same form, so the two can be
compared with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.top_controller import ControllerThresholds, TopController
from repro.errors import ProfilingError
from repro.workloads.spec import ServiceSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rhythm import Rhythm, RhythmConfig


@dataclass(frozen=True)
class RhythmArtifact:
    """Everything a worker needs to run Rhythm's controllers for one service.

    Mappings are stored as sorted ``(servpod, value)`` tuples so the
    artifact is hashable, deterministic to serialise, and immutable.
    """

    service_name: str
    sla_ms: float
    servpod_names: Tuple[str, ...]
    loadlimits: Tuple[Tuple[str, float], ...]
    slacklimits: Tuple[Tuple[str, float], ...]
    #: Normalized contribution scores C_i (Eq. 5) — carried for
    #: reporting/analysis; the controllers only need the two limits.
    contributions: Tuple[Tuple[str, float], ...]
    #: Provenance: how the artifact was profiled.
    seed: int = 0
    profiling_mode: str = "direct"
    probe_slacklimits: bool = True

    def __post_init__(self) -> None:
        pods = set(self.servpod_names)
        for label, table in (
            ("loadlimits", self.loadlimits),
            ("slacklimits", self.slacklimits),
        ):
            covered = {pod for pod, _ in table}
            if covered != pods:
                raise ProfilingError(
                    f"{self.service_name}: {label} cover {sorted(covered)} "
                    f"but the service has Servpods {sorted(pods)}"
                )

    # -- mapping views ---------------------------------------------------

    def loadlimit_map(self) -> Dict[str, float]:
        """Per-Servpod loadlimits as a dict."""
        return dict(self.loadlimits)

    def slacklimit_map(self) -> Dict[str, float]:
        """Per-Servpod slacklimits as a dict."""
        return dict(self.slacklimits)

    def contribution_map(self) -> Dict[str, float]:
        """Normalized contribution scores as a dict."""
        return dict(self.contributions)

    # -- controller construction ----------------------------------------

    def thresholds(self, servpod: str) -> ControllerThresholds:
        """The derived thresholds of one Servpod."""
        loadlimits = self.loadlimit_map()
        slacklimits = self.slacklimit_map()
        if servpod not in loadlimits:
            raise ProfilingError(
                f"{self.service_name}: unknown Servpod {servpod!r}"
            )
        return ControllerThresholds(
            loadlimit=loadlimits[servpod], slacklimit=slacklimits[servpod]
        )

    def controllers(self) -> Dict[str, TopController]:
        """Fresh per-Servpod top controllers (same construction as
        :meth:`repro.core.rhythm.Rhythm.controllers`)."""
        return {
            pod: TopController(
                servpod=pod,
                thresholds=self.thresholds(pod),
                sla_ms=self.sla_ms,
            )
            for pod in self.servpod_names
        }

    # -- extraction ------------------------------------------------------

    @classmethod
    def from_rhythm(
        cls,
        rhythm: "Rhythm",
        seed: int = 0,
        probe_slacklimits: bool = True,
    ) -> "RhythmArtifact":
        """Distill a profiled :class:`Rhythm` pipeline into an artifact.

        Triggers any missing pipeline stages (profile → contributions →
        limits) on the live object, then freezes the outcome.
        """
        normalized = rhythm.contributions().normalized()
        return cls(
            service_name=rhythm.spec.name,
            sla_ms=rhythm.spec.sla_ms,
            servpod_names=tuple(rhythm.spec.servpod_names),
            loadlimits=tuple(sorted(rhythm.loadlimits().items())),
            slacklimits=tuple(sorted(rhythm.slacklimits().items())),
            contributions=tuple(sorted(normalized.items())),
            seed=seed,
            profiling_mode=rhythm.config.profiling_mode,
            probe_slacklimits=probe_slacklimits,
        )


def artifact_for(
    service: ServiceSpec,
    seed: int = 0,
    probe_slacklimits: bool = True,
    config: Optional["RhythmConfig"] = None,
) -> RhythmArtifact:
    """Profile ``service`` through the serial reference pipeline and
    freeze it.

    Runs :func:`repro.experiments.runner.get_rhythm` afresh on every
    call; the parallel pipeline must return an equal artifact for the
    same arguments (asserted in ``tests/test_profile_parallel.py``).
    """
    from repro.experiments.runner import get_rhythm

    rhythm = get_rhythm(
        service, seed=seed, config=config, probe_slacklimits=probe_slacklimits
    )
    return RhythmArtifact.from_rhythm(
        rhythm, seed=seed, probe_slacklimits=probe_slacklimits
    )
