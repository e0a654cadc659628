"""Request-level queueing simulation — cross-validation of the latency model.

The analytic sojourn model (:mod:`repro.workloads.latency`) *postulates*
a convex load curve and a variance knee. This module derives the same
shapes from first principles: a multi-worker FIFO queue simulated
request-by-request on the discrete-event engine. It exists to validate
(and let users re-calibrate) the analytic model, and as the natural
extension point for users who want full request-level dynamics instead
of the fast analytic path.

A :class:`QueueingComponent` is an G/G/c queue: Poisson arrivals,
lognormal service times, ``c`` parallel workers. As the offered load
approaches capacity, waiting time — and its variance — blows up, which
is exactly the knee the analytic curves encode.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.kernel import drain_fifo_queue, resolve_kernel
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class QueueingStats:
    """Summary of one queueing run."""

    offered_load: float          # lambda * E[S] / c
    completed: int
    mean_sojourn_ms: float
    p99_sojourn_ms: float
    cov: float
    mean_wait_ms: float
    #: Simulation events the run executed (arrivals + in-horizon
    #: finishes) — the throughput denominator for kernel benchmarks.
    events: int = 0


class QueueingComponent:
    """A G/G/c FIFO queue driven by the discrete-event engine.

    Parameters
    ----------
    service_ms:
        Median service time of one request (lognormal).
    service_sigma:
        Lognormal sigma of the service time.
    workers:
        Parallel workers (threads) of the component.
    """

    def __init__(
        self,
        service_ms: float,
        service_sigma: float = 0.3,
        workers: int = 8,
    ) -> None:
        if service_ms <= 0 or service_sigma <= 0 or workers <= 0:
            raise ConfigurationError(
                f"invalid queue parameters service_ms={service_ms} "
                f"sigma={service_sigma} workers={workers}"
            )
        self.service_ms = float(service_ms)
        self.service_sigma = float(service_sigma)
        self.workers = int(workers)

    #: Inter-arrival gaps are drawn in batches of this size.
    _ARRIVAL_CHUNK = 1024

    @property
    def capacity_qps(self) -> float:
        """Saturation throughput: workers / E[service]."""
        mean_service_s = (
            self.service_ms * math.exp(self.service_sigma**2 / 2) / 1000.0
        )
        return self.workers / mean_service_s

    def simulate(
        self,
        arrival_qps: float,
        duration_s: float,
        streams: Optional[RandomStreams] = None,
        warmup_s: float = 2.0,
        kernel: Optional[str] = None,
    ) -> QueueingStats:
        """Simulate ``duration_s`` seconds of Poisson arrivals.

        Requests arriving during the warm-up period are served but not
        counted, so the statistics reflect (near-)steady state.

        Arrival times and service times are drawn in vectorized batches;
        both streams are consumed in exactly the order the historical
        one-draw-per-event loop consumed them, so results are
        bit-identical (pinned by a scalar reference implementation in
        the tests). Under the batched kernel (``kernel="batched"`` or
        ``RHYTHM_KERNEL=batched``) the event engine is bypassed entirely
        — :func:`repro.sim.kernel.drain_fifo_queue` replays the FIFO
        loop as a start-time recurrence, bit-identical again.
        """
        if arrival_qps <= 0 or duration_s <= 0:
            raise ConfigurationError(
                f"need positive rate/duration, got {arrival_qps}/{duration_s}"
            )
        streams = streams or RandomStreams(0)
        arrival_rng = streams.stream("queue:arrivals")
        service_rng = streams.stream("queue:service")

        arrival_times = self._draw_arrival_times(
            arrival_rng, arrival_qps, duration_s
        )
        # One batch replaces one scalar lognormal per fired arrival.
        service_times: List[float] = (
            service_rng.lognormal(
                math.log(self.service_ms / 1000.0),
                self.service_sigma,
                size=len(arrival_times),
            ).tolist()
            if arrival_times
            else []
        )

        if resolve_kernel(kernel) == "batched":
            sojourn_arr, wait_arr, events = drain_fifo_queue(
                arrival_times,
                service_times,
                self.workers,
                warmup_s,
                duration_s + 60.0,
            )
            return self._stats(
                arrival_qps, sojourn_arr, wait_arr, events
            )

        engine = Engine()
        busy = [0]                    # busy workers
        waiting: deque = deque()      # (arrival time, service time)
        sojourns: List[float] = []
        waits: List[float] = []

        def start_service(t: float, arrived: float, service_s: float) -> None:
            busy[0] += 1

            def finish(t_done: float) -> None:
                busy[0] -= 1
                if arrived >= warmup_s:
                    sojourns.append((t_done - arrived) * 1000.0)
                    waits.append((t_done - arrived - service_s) * 1000.0)
                if waiting:
                    q_arrived, q_service = waiting.popleft()
                    start_service(t_done, q_arrived, q_service)

            engine.after(service_s, finish)

        next_service = iter(service_times)

        def arrive(t: float) -> None:
            service_s = next(next_service)
            if busy[0] < self.workers:
                start_service(t, t, service_s)
            else:
                waiting.append((t, service_s))

        engine.at_many([(t, arrive) for t in arrival_times])
        fired = engine.run(until=duration_s + 60.0)  # drain in-flight requests
        return self._stats(arrival_qps, np.asarray(sojourns), waits, fired)

    def _stats(
        self,
        arrival_qps: float,
        sojourns: np.ndarray,
        waits,
        events: int,
    ) -> QueueingStats:
        """Summarise completion records (shared by both kernels).

        ``sojourns``/``waits`` arrive in finish order from both paths,
        so the numpy reductions fold the same operands in the same
        order and the statistics are bit-identical across kernels.
        """
        if sojourns.size == 0:
            raise ConfigurationError(
                "no requests completed after warm-up; extend the duration"
            )
        mean = float(sojourns.mean())
        return QueueingStats(
            offered_load=arrival_qps / self.capacity_qps,
            completed=len(sojourns),
            mean_sojourn_ms=mean,
            p99_sojourn_ms=float(np.percentile(sojourns, 99.0)),
            cov=float(sojourns.std(ddof=1) / mean) if len(sojourns) > 1 else 0.0,
            mean_wait_ms=float(np.mean(waits)),
            events=events,
        )

    def _draw_arrival_times(
        self,
        arrival_rng: np.random.Generator,
        arrival_qps: float,
        duration_s: float,
    ) -> List[float]:
        """Materialise the Poisson arrival process as a list of times.

        Gaps are drawn in chunks; when the overshooting gap lands
        mid-chunk the generator is rewound and exactly the prefix the
        scalar loop would have consumed (the in-range gaps plus the one
        overshoot) is re-drawn, so the arrival stream's final state
        matches the historical one-gap-per-event loop bit-for-bit.
        """
        scale = 1.0 / arrival_qps
        first = float(arrival_rng.exponential(scale))
        # Arrivals past the drain horizon would never fire — and the
        # scalar loop never drew a gap for them either.
        if first > duration_s + 60.0:
            return []
        times: List[float] = [first]
        t = first
        while True:
            state = arrival_rng.bit_generator.state
            gaps = arrival_rng.exponential(scale, size=self._ARRIVAL_CHUNK)
            # cumsum accumulates strictly left to right, so seeding it
            # with ``t`` reproduces the scalar ``t += gap`` chain
            # bit-for-bit.
            chunk_times = np.cumsum(np.concatenate(((t,), gaps)))[1:]
            over = np.nonzero(chunk_times > duration_s)[0]
            if over.size:
                j = int(over[0])
                arrival_rng.bit_generator.state = state
                arrival_rng.exponential(scale, size=j + 1)
                times.extend(chunk_times[:j].tolist())
                return times
            times.extend(chunk_times.tolist())
            t = float(chunk_times[-1])


def load_latency_curve(
    component: QueueingComponent,
    loads: List[float],
    duration_s: float = 60.0,
    seed: int = 0,
) -> List[QueueingStats]:
    """Sweep offered load (fractions of capacity) and collect statistics.

    This is the queueing-theoretic counterpart of the analytic model's
    ``median(u)`` / ``sigma(u)`` curves; tests assert the two agree in
    shape (both convex in load, variance rising toward saturation).
    """
    stats = []
    for i, load in enumerate(loads):
        if not (0.0 < load < 1.0):
            raise ConfigurationError(
                f"offered load must be in (0,1) for a stable queue, got {load}"
            )
        qps = load * component.capacity_qps
        stats.append(
            component.simulate(
                qps, duration_s, RandomStreams(seed).spawn(f"load-{i}")
            )
        )
    return stats
