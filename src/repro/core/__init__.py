"""Rhythm's core: Servpods, contribution analysis, thresholds, control.

This package is the paper's contribution proper:

- :mod:`repro.core.servpod` — the Servpod abstraction and deployment,
- :mod:`repro.core.contribution` — tail-latency contribution analysis
  (Equations 1–5, including critical-path scaling for fan-out),
- :mod:`repro.core.loadlimit` — the CoV-crossing loadlimit rule (Fig. 8),
- :mod:`repro.core.slacklimit` — Algorithm 1 (findSlacklimit),
- :mod:`repro.core.actions` — the five BE control actions,
- :mod:`repro.core.top_controller` — Algorithm 2's decision loop,
- :mod:`repro.core.subcontrollers` — CPU/LLC, frequency, memory and
  network subcontrollers,
- :mod:`repro.core.profiler` — offline solo-run profiling,
- :mod:`repro.core.rhythm` — the facade wiring everything together.
"""

from repro.core.servpod import Servpod, ServpodDeployment, deploy_service
from repro.core.contribution import (
    ContributionAnalyzer,
    ContributionResult,
    ServpodContribution,
)
from repro.core.loadlimit import derive_loadlimit
from repro.core.actions import BeAction
from repro.core.top_controller import ControllerThresholds, TopController
from repro.core.subcontrollers import (
    CpuLlcSubcontroller,
    FrequencySubcontroller,
    MemorySubcontroller,
    NetworkSubcontroller,
)
from repro.core.profiler import ProfilingResult, ServiceProfiler
from repro.core.rhythm import Rhythm, RhythmConfig

__all__ = [
    "Servpod",
    "ServpodDeployment",
    "deploy_service",
    "ContributionAnalyzer",
    "ContributionResult",
    "ServpodContribution",
    "derive_loadlimit",
    "BeAction",
    "ControllerThresholds",
    "TopController",
    "CpuLlcSubcontroller",
    "FrequencySubcontroller",
    "MemorySubcontroller",
    "NetworkSubcontroller",
    "ProfilingResult",
    "ServiceProfiler",
    "Rhythm",
    "RhythmConfig",
]
