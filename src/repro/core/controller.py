"""The pluggable per-machine controller interface.

Every co-location controller in the repo — Rhythm's profiled
:class:`~repro.core.top_controller.TopController`, the Heracles baseline,
and the bake-off rivals under :mod:`repro.baselines` — follows the same
observe → decide → actuate loop: each control period it observes the
monitored LC load and window tail latency, decides one
:class:`~repro.core.actions.BeAction`, and the experiment harness
actuates that action through the machine's existing knobs (cpuset/CAT
via the CPU-LLC subcontroller, memory sizing, DVFS stepping).

:class:`ColocationController` is the extracted contract: subclasses
implement :meth:`_decide` only; the base class owns slack computation,
input validation and the timestamped decision history. Anything that
satisfies this interface can ride a shared-physics bake-off (a member
slot of :class:`repro.sim.kernel.FleetColocationKernel`) or plug into a
:class:`~repro.experiments.colocation.ColocationExperiment` directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

from repro.core.actions import BeAction
from repro.errors import ControlError


class ColocationController(ABC):
    """One machine's decision loop behind a uniform interface.

    Parameters
    ----------
    servpod:
        Name of the Servpod this controller manages (for reporting).
    sla_ms:
        Tail-latency target from the SLA.

    Contract
    --------
    - :meth:`decide` is called once per control period with the same
      ``(load, tail_ms)`` pair every co-located controller sees; it must
      be deterministic in its inputs plus internal state and must not
      read or mutate machine state (actuation is the harness's job —
      that separation is what lets the bake-off kernel share one physics
      pass across controllers).
    - ``tail_ms == 0.0`` means the observation window carried no samples
      (the harness passes the previous action context through unchanged).
    """

    def __init__(self, servpod: str, sla_ms: float) -> None:
        if sla_ms <= 0:
            raise ControlError(f"SLA must be positive, got {sla_ms!r}")
        self.servpod = servpod
        self.sla_ms = float(sla_ms)
        self._history: List[Tuple[float, BeAction]] = []

    # -- the decision function ------------------------------------------

    def slack(self, tail_ms: float) -> float:
        """Latency slack; negative when the SLA is violated."""
        return (self.sla_ms - tail_ms) / self.sla_ms

    def decide(
        self, load: float, tail_ms: float, t: Optional[float] = None
    ) -> BeAction:
        """One control decision given the monitored load and tail."""
        if load < 0:
            raise ControlError(f"negative load {load!r}")
        action = self._decide(load, tail_ms)
        if t is not None:
            self._history.append((t, action))
        return action

    @abstractmethod
    def _decide(self, load: float, tail_ms: float) -> BeAction:
        """The controller-specific decision rule."""

    # -- introspection --------------------------------------------------

    @property
    def history(self) -> List[Tuple[float, BeAction]]:
        """Timestamped decisions (only recorded when ``t`` was passed)."""
        return list(self._history)

    def action_counts(self) -> dict:
        """How many times each action was taken."""
        counts = {action: 0 for action in BeAction}
        for _, action in self._history:
            counts[action] += 1
        return counts
