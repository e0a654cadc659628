"""Experiment harness: co-location runs, sweeps, and per-figure drivers.

- :mod:`repro.experiments.colocation` — the runtime loop co-locating one
  LC service with BE jobs under a controller policy,
- :mod:`repro.experiments.runner` — Rhythm-vs-Heracles comparisons and
  grid sweeps,
- :mod:`repro.experiments.figures` — one driver per paper figure/table
  (see DESIGN.md's experiment index),
- :mod:`repro.experiments.report` — plain-text table rendering.
"""

from repro.experiments.colocation import (
    ColocationConfig,
    ColocationExperiment,
    ColocationResult,
    make_sla_probe,
)
from repro.experiments.runner import (
    ComparisonResult,
    compare_systems,
    run_cell,
)

__all__ = [
    "ColocationConfig",
    "ColocationExperiment",
    "ColocationResult",
    "make_sla_probe",
    "ComparisonResult",
    "compare_systems",
    "run_cell",
]
