"""LC service runtime: vectorized request sampling.

:class:`Service` binds a :class:`~repro.workloads.spec.ServiceSpec` to
random streams and answers the two questions the rest of the system asks:

1. *"What end-to-end latencies do requests see right now?"* —
   :meth:`Service.sample_e2e`, used by runtime tail-latency monitoring.
2. *"How long did each request stay in each Servpod?"* —
   :meth:`Service.sample_sojourns` (fast, analytic path) and
   :meth:`Service.build_request_records` (full timestamped executions for
   the request tracer).

Interference enters through :class:`ServiceState`, which carries one
slowdown/sigma-inflation pair per Servpod (different machines see
different BE pressure — that is the whole point of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bejobs.job import LcUsage
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.workloads.latency import LatencyModel
from repro.workloads.request import RequestRecord, build_execution
from repro.workloads.spec import CallNode, ServiceSpec


@dataclass
class ServiceState:
    """Per-Servpod interference condition for one sampling call.

    Missing Servpods default to no interference (slowdown 1, inflation 1).
    """

    slowdowns: Dict[str, float] = field(default_factory=dict)
    sigma_inflations: Dict[str, float] = field(default_factory=dict)

    def slowdown(self, servpod: str) -> float:
        """Median multiplier for ``servpod`` (>= 1)."""
        return self.slowdowns.get(servpod, 1.0)

    def sigma_inflation(self, servpod: str) -> float:
        """Sigma multiplier for ``servpod`` (>= 1)."""
        return self.sigma_inflations.get(servpod, 1.0)

    @classmethod
    def solo(cls) -> "ServiceState":
        """The interference-free state."""
        return cls()


class Service:
    """Runtime sampler for one LC service."""

    def __init__(self, spec: ServiceSpec, streams: Optional[RandomStreams] = None) -> None:
        self.spec = spec
        self.streams = streams or RandomStreams(0)
        self._request_counter = 0
        # Per-pod lookups and usage coefficients are load-independent;
        # caching them removes the linear spec scans and component sums
        # from the per-tick hot path without changing a single value.
        self._pods: Dict[str, object] = {
            pod.name: pod for pod in spec.servpods
        }
        self._usage_coeffs = {
            pod.name: (
                sum(c.cores * c.peak_core_util for c in pod.components),
                sum(c.peak_membw_fraction for c in pod.components),
                sum(c.peak_net_gbps for c in pod.components),
                sum(c.llc_fraction for c in pod.components),
            )
            for pod in spec.servpods
        }

    # -- latency sampling -----------------------------------------------

    def sample_e2e(
        self, load: float, n: int, state: Optional[ServiceState] = None
    ) -> np.ndarray:
        """Draw ``n`` end-to-end request latencies (ms) at ``load``.

        This is the runtime monitoring hot path (one call per control
        window), so it walks the call tree without the per-Servpod
        bookkeeping of :meth:`sample_sojourns`. Both paths draw the same
        lognormals in the same order, so their e2e latencies are
        bit-identical.
        """
        if n <= 0:
            raise ConfigurationError(f"need n >= 1 requests, got {n}")
        state = state or ServiceState.solo()
        rng = self.streams.stream(f"service:{self.spec.name}:latency")
        counts = self._type_counts(n, rng)
        e2e = np.empty(n)
        offset = 0
        for rtype, count in counts:
            if count == 0:
                continue
            e2e[offset : offset + count] = self._walk_tree(
                rtype.root, load, count, state, rng, None
            )
            offset += count
        return e2e

    def sample_sojourns(
        self, load: float, n: int, state: Optional[ServiceState] = None
    ) -> Dict[str, np.ndarray]:
        """Draw per-Servpod sojourns and e2e latency for ``n`` requests.

        Returns a dict mapping each Servpod name to an ``(n,)`` array of
        that request's total sojourn there (0 where the request's type
        does not visit the Servpod), plus key ``"__e2e__"`` with the
        end-to-end latencies. All values are in milliseconds.
        """
        if n <= 0:
            raise ConfigurationError(f"need n >= 1 requests, got {n}")
        state = state or ServiceState.solo()
        rng = self.streams.stream(f"service:{self.spec.name}:latency")
        counts = self._type_counts(n, rng)
        e2e = np.empty(n)
        per_pod = {name: np.zeros(n) for name in self.spec.servpod_names}
        offset = 0
        for rtype, count in counts:
            if count == 0:
                continue
            sl = slice(offset, offset + count)
            totals: Dict[str, np.ndarray] = {}
            e2e[sl] = self._walk_tree(rtype.root, load, count, state, rng, totals)
            for pod_name, arr in totals.items():
                per_pod[pod_name][sl] = arr
            offset += count
        per_pod["__e2e__"] = e2e
        return per_pod

    def tail_latency(
        self,
        load: float,
        n: int,
        state: Optional[ServiceState] = None,
        percentile: Optional[float] = None,
    ) -> float:
        """The tail percentile (default: the SLA's) of ``n`` sampled requests."""
        pct = self.spec.tail_percentile if percentile is None else percentile
        return float(np.percentile(self.sample_e2e(load, n, state), pct))

    def _walk_tree(
        self,
        node: CallNode,
        load: float,
        n: int,
        state: ServiceState,
        rng: np.random.Generator,
        totals: Optional[Dict[str, np.ndarray]],
    ) -> np.ndarray:
        """Vectorized recursion over the call tree; returns subtree times.

        ``totals`` accumulates per-Servpod sojourns when provided;
        passing ``None`` (the ``sample_e2e`` fast path) skips that
        bookkeeping without touching the RNG stream.
        """
        pod = self._pods[node.servpod]
        draws = LatencyModel.sample_servpod_ms(
            pod,
            load,
            n,
            rng,
            slowdown=state.slowdown(node.servpod),
            sigma_inflation=state.sigma_inflation(node.servpod),
        )
        if totals is not None:
            prev = totals.get(node.servpod)
            totals[node.servpod] = draws if prev is None else prev + draws
        if not node.children:
            return draws
        child_times = [
            self._walk_tree(child, load, n, state, rng, totals)
            for child in node.children
        ]
        if node.parallel:
            downstream = np.maximum.reduce(child_times)
        else:
            downstream = np.add.reduce(child_times)
        return draws + downstream

    # -- full request records (tracer input) --------------------------------

    def build_request_records(
        self,
        load: float,
        n: int,
        state: Optional[ServiceState] = None,
        t_start: float = 0.0,
        inter_arrival_ms: float = 1.0,
    ) -> List[RequestRecord]:
        """Construct ``n`` timestamped request executions for the tracer."""
        if n <= 0:
            raise ConfigurationError(f"need n >= 1 requests, got {n}")
        state = state or ServiceState.solo()
        rng = self.streams.stream(f"service:{self.spec.name}:records")
        counts = self._type_counts(n, rng)
        # Load and state are fixed for the call: one parameter block per
        # Servpod, built at its first visit.
        params: Dict[str, tuple] = {}

        def sojourn_of(pod_name: str) -> float:
            block = params.get(pod_name)
            if block is None:
                block = params[pod_name] = LatencyModel.component_params(
                    self.spec.servpod(pod_name),
                    load,
                    slowdown=state.slowdown(pod_name),
                    sigma_inflation=state.sigma_inflation(pod_name),
                )
            return float(LatencyModel.draw_servpod_ms(*block, 1, rng)[0])

        records: List[RequestRecord] = []
        t = t_start
        for rtype, count in counts:
            for _ in range(count):
                self._request_counter += 1
                records.append(
                    build_execution(
                        rtype.root,
                        sojourn_of,
                        request_id=self._request_counter,
                        t_start=t,
                    )
                )
                t += inter_arrival_ms
        return records

    # -- resource usage ----------------------------------------------------

    def lc_usage(self, servpod_name: str, load: float) -> LcUsage:
        """The Servpod's machine-resource usage at ``load`` (solo run)."""
        if not (0.0 <= load <= 1.02):
            raise ConfigurationError(f"load must be in [0, 1.02], got {load!r}")
        coeffs = self._usage_coeffs.get(servpod_name)
        if coeffs is None:
            raise ConfigurationError(
                f"service {self.spec.name!r} has no Servpod {servpod_name!r}"
            )
        busy_coeff, membw_coeff, net_coeff, llc_coeff = coeffs
        busy = busy_coeff * load
        membw = min(1.0, membw_coeff * load)
        net = net_coeff * load
        # Cache footprint saturates quickly: even light load keeps the
        # working set warm.
        llc = min(1.0, llc_coeff * (0.3 + 0.7 * load))
        return LcUsage(
            busy_cores=busy, membw_fraction=membw, net_gbps=net, llc_fraction=llc
        )

    # -- internals -----------------------------------------------------------

    def _type_counts(self, n: int, rng: np.random.Generator) -> list:
        """Split ``n`` requests across request types by weight."""
        types = self.spec.request_types
        if len(types) == 1:
            return [(types[0], n)]
        weights = np.array([rt.weight for rt in types], dtype=float)
        weights /= weights.sum()
        counts = rng.multinomial(n, weights)
        return list(zip(types, counts.tolist()))
