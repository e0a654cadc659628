"""Measurement utilities: percentiles, time series, EMU and collectors.

- :mod:`repro.metrics.percentile` — tail-latency estimation (windowed
  percentiles, fixed-bin streaming histograms),
- :mod:`repro.metrics.streaming` — single-pass Welford/Chan moment
  accumulators,
- :mod:`repro.metrics.timeseries` — timestamped series with summaries,
- :mod:`repro.metrics.emu` — the paper's EMU (effective machine
  utilisation) metric and resource-utilisation accumulators,
- :mod:`repro.metrics.collector` — per-machine runtime metric collection
  used by the experiment harness.
"""

from repro.metrics.percentile import (
    HistogramTailTracker,
    WindowedTailTracker,
    percentile,
)
from repro.metrics.streaming import WelfordAccumulator
from repro.metrics.timeseries import TimeSeries
from repro.metrics.emu import EmuAccumulator, UtilisationAccumulator
from repro.metrics.collector import MachineMetrics, TickSample

__all__ = [
    "HistogramTailTracker",
    "WelfordAccumulator",
    "WindowedTailTracker",
    "percentile",
    "TimeSeries",
    "EmuAccumulator",
    "UtilisationAccumulator",
    "MachineMetrics",
    "TickSample",
]
