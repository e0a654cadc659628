"""Per-machine runtime metric collection.

:class:`MachineMetrics` is the bookkeeping object the experiment harness
attaches to every (machine, Servpod) pair. It records one
:class:`TickSample` per control interval — everything Figure 17 plots —
and exposes the averages the evaluation figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.metrics.emu import EmuAccumulator, UtilisationAccumulator
from repro.metrics.percentile import WindowedTailTracker


@dataclass(frozen=True)
class TickSample:
    """One control-interval snapshot of a machine (Figure 17 rows)."""

    t: float
    load: float
    slack: float
    tail_ms: float
    cpu_utilisation: float
    membw_utilisation: float
    be_instances: int
    be_cores: int
    be_llc_ways: int
    be_rate: float
    action: str


@dataclass
class MachineMetrics:
    """Accumulated metrics for one machine over one experiment run."""

    machine_name: str
    servpod: str
    total_cores: float
    sla_ms: float
    tail_pct: float = 99.0
    samples: List[TickSample] = field(default_factory=list)
    emu: EmuAccumulator = field(default_factory=EmuAccumulator)
    utilisation: Optional[UtilisationAccumulator] = None
    tail: Optional[WindowedTailTracker] = None

    def __post_init__(self) -> None:
        if self.utilisation is None:
            self.utilisation = UtilisationAccumulator(self.total_cores)
        if self.tail is None:
            self.tail = WindowedTailTracker(self.tail_pct)

    def record_tick(
        self,
        t: float,
        dt: float,
        load: float,
        tail_ms: float,
        busy_cores: float,
        membw_fraction: float,
        be_instances: int,
        be_cores: int,
        be_llc_ways: int,
        be_rate: float,
        action: str,
    ) -> None:
        """Record one control interval's worth of observations."""
        slack = (self.sla_ms - tail_ms) / self.sla_ms
        self.emu.observe(dt, load, be_rate)
        assert self.utilisation is not None
        self.utilisation.observe(dt, busy_cores, membw_fraction)
        self.samples.append(
            TickSample(
                t=t,
                load=load,
                slack=slack,
                tail_ms=tail_ms,
                cpu_utilisation=min(1.0, busy_cores / self.total_cores),
                membw_utilisation=membw_fraction,
                be_instances=be_instances,
                be_cores=be_cores,
                be_llc_ways=be_llc_ways,
                be_rate=be_rate,
                action=action,
            )
        )

    #: When set (by the experiment harness at teardown), BE throughput in
    #: terms of *successfully finished* work only — kills lose the
    #: in-flight unit, matching the paper's EMU definition.
    completed_be_throughput: Optional[float] = None

    # -- summaries ------------------------------------------------------------

    @property
    def avg_be_throughput(self) -> float:
        """Normalized BE throughput (completed work when available)."""
        if self.completed_be_throughput is not None:
            return self.completed_be_throughput
        return self.emu.be_throughput

    @property
    def avg_emu(self) -> float:
        """Time-averaged EMU."""
        return self.emu.emu

    @property
    def avg_cpu_utilisation(self) -> float:
        """Time-averaged CPU utilisation."""
        assert self.utilisation is not None
        return self.utilisation.cpu_utilisation

    @property
    def avg_membw_utilisation(self) -> float:
        """Time-averaged memory-bandwidth utilisation."""
        assert self.utilisation is not None
        return self.utilisation.membw_utilisation

    @property
    def worst_tail_ms(self) -> float:
        """Worst per-window tail latency (ms)."""
        assert self.tail is not None
        worst = self.tail.worst_tail
        if worst is None:
            worst = max((s.tail_ms for s in self.samples), default=0.0)
        return worst

    @property
    def sla_violations(self) -> int:
        """Control intervals whose tail exceeded the SLA."""
        return sum(1 for s in self.samples if s.tail_ms > self.sla_ms)
