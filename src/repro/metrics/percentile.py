"""Tail-latency estimation.

The paper tracks the 99th percentile latency per second (SLA definition,
§5.1) and feeds a windowed tail estimate to the runtime controller. The
simulator records each window's tail in
:class:`~repro.metrics.collector.MachineMetrics`' ``tail_ms`` column.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of ``samples`` (must be non-empty)."""
    if len(samples) == 0:
        raise ConfigurationError("cannot take a percentile of zero samples")
    if not (0.0 <= pct <= 100.0):
        raise ConfigurationError(f"percentile must be in [0,100], got {pct!r}")
    return float(np.percentile(np.asarray(samples, dtype=float), pct))
