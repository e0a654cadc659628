"""Execution-layer fault injection: worker crash/hang sabotage plans.

An :class:`ExecutorFaultPlan` rides along inside every task envelope the
pool ships (see :func:`repro.parallel.pool.set_executor_fault_plan`).
Worker-side, the pool asks the plan what to do with each task; the
decision is a pure function of ``(plan.seed, task_key)`` — the task key
is a content hash of the task function and its arguments — so the same
plan sabotages the same tasks in every run, on any worker, in any order.

Three sabotage modes:

- ``crash`` — raise :class:`~repro.errors.InjectedWorkerFault` inside
  the task (a worker that dies with a clean traceback: OOM-killed
  library call, segfault caught by a wrapper). The parent sees one
  failed future, retries exactly once — counters match the plan.
- ``kill`` — ``os._exit`` the worker process (a hard crash). The whole
  ``ProcessPoolExecutor`` breaks; the parent must rebuild the pool and
  resubmit everything that was in flight.
- ``hang`` — sleep ``hang_s`` before running (a wedged worker). With a
  per-task timeout below ``hang_s`` the parent abandons the attempt and
  the pool is rebuilt; with a generous timeout the task completes
  normally. Either way the final result is unchanged.

Sabotage fires only on a task's *first* attempt (``attempt == 0``), so
retried work — including innocent tasks collaterally killed by a pool
break — always runs clean. Combined with task functions being pure,
this guarantees executor-only faults produce bit-identical results to a
fault-free run (asserted in ``tests/test_faults.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

from repro.errors import FaultError


def _unit_draw(seed: int, task_key: str) -> float:
    """A uniform [0, 1) value that is a pure function of (seed, key)."""
    digest = hashlib.sha256(
        f"executor-fault:{seed}:{task_key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class ExecutorFaultPlan:
    """A deterministic sabotage rule for pool tasks."""

    seed: int = 0
    #: Probability a task's first attempt raises an injected exception.
    crash_rate: float = 0.0
    #: Probability a task's first attempt hard-kills its worker process.
    kill_rate: float = 0.0
    #: Probability a task's first attempt sleeps ``hang_s`` first.
    hang_rate: float = 0.0
    #: How long a hang-sabotaged task sleeps before running.
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "kill_rate", "hang_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise FaultError(f"{name} must be in [0, 1], got {value}")
        if self.crash_rate + self.kill_rate + self.hang_rate > 1.0 + 1e-12:
            raise FaultError(
                "crash_rate + kill_rate + hang_rate must be <= 1 "
                "(one draw decides the action)"
            )
        if self.hang_s <= 0:
            raise FaultError(f"hang_s must be > 0, got {self.hang_s}")

    def action_for(self, task_key: str, attempt: int) -> Optional[str]:
        """The sabotage for one task attempt: crash/kill/hang or None.

        Only first attempts are sabotaged — a retry (or a task re-run
        after a pool break) always executes clean, which is what makes
        the retry path converge and results bit-identical.
        """
        if attempt > 0:
            return None
        u = _unit_draw(self.seed, task_key)
        if u < self.crash_rate:
            return "crash"
        if u < self.crash_rate + self.kill_rate:
            return "kill"
        if u < self.crash_rate + self.kill_rate + self.hang_rate:
            return "hang"
        return None

    def expected_actions(self, task_keys: Iterable[str]) -> Dict[str, int]:
        """Parent-side prediction: sabotage counts over ``task_keys``.

        Because the decision is content-addressed, the parent can compute
        exactly which tasks will be sabotaged before submitting anything
        — ``tests/test_faults.py`` uses this to assert the pool's retry
        counters match the injected faults.
        """
        counts = {"crash": 0, "kill": 0, "hang": 0}
        for key in task_keys:
            action = self.action_for(key, 0)
            if action is not None:
                counts[action] += 1
        return counts


@contextlib.contextmanager
def executor_chaos(plan: ExecutorFaultPlan) -> Iterator[ExecutorFaultPlan]:
    """Install ``plan`` on the shared pool for the duration of a block."""
    from repro.parallel.pool import set_executor_fault_plan

    set_executor_fault_plan(plan)
    try:
        yield plan
    finally:
        set_executor_fault_plan(None)
