"""Per-machine runtime metric collection.

:class:`MachineMetrics` is the bookkeeping object the experiment harness
attaches to every (machine, Servpod) pair. It keeps one entry per
control interval of every series Figure 17 plots, stored as columns
(:data:`FLOAT_COLUMNS`, :data:`COUNT_COLUMNS` and the action names),
and exposes the averages the evaluation figures report.
:class:`TickSample` rows are built from the columns only when a caller
asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.emu import EmuAccumulator, UtilisationAccumulator

#: The float64 per-tick series, in the row order of
#: :meth:`MachineMetrics.columns`' float block.
FLOAT_COLUMNS: Tuple[str, ...] = (
    "t",
    "load",
    "slack",
    "tail_ms",
    "cpu_utilisation",
    "membw_utilisation",
    "be_rate",
)
#: The integer (int64) per-tick series, in the row order of the count block.
COUNT_COLUMNS: Tuple[str, ...] = ("be_instances", "be_cores", "be_llc_ways")

_TAIL = FLOAT_COLUMNS.index("tail_ms")


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


def _empty_floats() -> np.ndarray:
    return np.empty((len(FLOAT_COLUMNS), 0))


def _empty_counts() -> np.ndarray:
    return np.empty((len(COUNT_COLUMNS), 0), dtype=np.int64)


@dataclass
class MachineMetrics:
    """Accumulated metrics for one machine over one experiment run."""

    machine_name: str
    servpod: str
    total_cores: float
    sla_ms: float
    emu: EmuAccumulator = field(default_factory=EmuAccumulator)
    utilisation: Optional[UtilisationAccumulator] = None
    #: When set (by the experiment harness at teardown), BE throughput in
    #: terms of *successfully finished* work only — kills lose the
    #: in-flight unit, matching the paper's EMU definition.
    completed_be_throughput: Optional[float] = None
    # The per-tick columns: ``(len(FLOAT_COLUMNS), ticks)`` float64 and
    # ``(len(COUNT_COLUMNS), ticks)`` int64 blocks plus one action name
    # per tick. ``record_tick`` appends rows to ``_pending``; reading the
    # columns folds them into the blocks.
    _floats: np.ndarray = field(
        default_factory=_empty_floats, init=False, repr=False, compare=False
    )
    _counts: np.ndarray = field(
        default_factory=_empty_counts, init=False, repr=False, compare=False
    )
    _actions: List[str] = field(default_factory=list, init=False, repr=False)
    _pending: List[Tuple] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.utilisation is None:
            self.utilisation = UtilisationAccumulator(self.total_cores)

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
        self._pending.append(
            (
                t,
                load,
                slack,
                tail_ms,
                min(1.0, busy_cores / self.total_cores),
                membw_fraction,
                be_rate,
                be_instances,
                be_cores,
                be_llc_ways,
            )
        )
        self._actions.append(action)

    def set_columns(
        self, floats: np.ndarray, counts: np.ndarray, actions: Sequence[str]
    ) -> None:
        """Install a whole run's columns at once (the fleet kernel's
        finalize); the metrics must not have recorded a tick yet."""
        assert not self._actions, "columns already recorded"
        assert floats.shape == (len(FLOAT_COLUMNS), len(actions))
        assert counts.shape == (len(COUNT_COLUMNS), len(actions))
        self._floats = floats
        self._counts = counts
        self._actions = list(actions)

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(floats, counts)`` blocks, one row per column of
        :data:`FLOAT_COLUMNS` / :data:`COUNT_COLUMNS`, one entry per
        tick. Treat them as read-only."""
        if self._pending:
            n_f = len(FLOAT_COLUMNS)
            rows = self._pending
            self._pending = []
            floats = np.array([row[:n_f] for row in rows], dtype=np.float64)
            counts = np.array([row[n_f:] for row in rows], dtype=np.int64)
            self._floats = np.concatenate((self._floats, floats.T), axis=1)
            self._counts = np.concatenate((self._counts, counts.T), axis=1)
        return self._floats, self._counts

    @property
    def actions(self) -> Tuple[str, ...]:
        """The action taken at each tick."""
        return tuple(self._actions)

    def tick_rows(self) -> Iterator[Tuple]:
        """One tuple of python scalars per tick, in :class:`TickSample`
        field order."""
        floats, counts = self.columns()
        series = dict(zip(FLOAT_COLUMNS, floats.tolist()))
        series.update(zip(COUNT_COLUMNS, counts.tolist()))
        series["action"] = self._actions
        return zip(*(series[f.name] for f in fields(TickSample)))

    @property
    def samples(self) -> List[TickSample]:
        """The per-tick rows, built from the columns on each call."""
        return [TickSample(*row) for row in self.tick_rows()]

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
    def window_tails(self) -> Tuple[float, ...]:
        """The tail of every closed window, in tick order.

        A tick whose window drew no samples records a 0.0 tail, and a
        closed window's tail is a percentile of positive latencies, so
        the closed windows are the column's positive entries.
        """
        tails = self.columns()[0][_TAIL]
        return tuple(tails[tails > 0.0].tolist())

    @property
    def worst_tail_ms(self) -> float:
        """Worst per-window tail latency (ms); 0.0 before any tick."""
        tails = self.columns()[0][_TAIL]
        return float(tails.max()) if tails.size else 0.0

    @property
    def sla_violations(self) -> int:
        """Control intervals whose tail exceeded the SLA."""
        return int(np.count_nonzero(self.columns()[0][_TAIL] > self.sla_ms))
