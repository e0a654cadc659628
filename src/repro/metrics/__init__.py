"""Measurement utilities: percentiles, moments, EMU and collectors.

- :mod:`repro.metrics.percentile` — the linear-interpolation
  percentile helper,
- :mod:`repro.metrics.streaming` — single-pass Welford/Chan moment
  accumulators,
- :mod:`repro.metrics.emu` — the paper's EMU (effective machine
  utilisation) metric and resource-utilisation accumulators,
- :mod:`repro.metrics.collector` — per-machine runtime metric collection
  used by the experiment harness; its ``tail_ms`` column is the one
  record of each control window's tail.
"""

from repro.metrics.percentile import percentile
from repro.metrics.streaming import WelfordAccumulator
from repro.metrics.emu import EmuAccumulator, UtilisationAccumulator
from repro.metrics.collector import MachineMetrics, TickSample

__all__ = [
    "WelfordAccumulator",
    "percentile",
    "EmuAccumulator",
    "UtilisationAccumulator",
    "MachineMetrics",
    "TickSample",
]
