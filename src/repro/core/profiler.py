"""Offline solo-run profiling (§3.2: "profiling LC once").

The profiler drives the LC service alone (no BE jobs) across a load
sweep, collecting per-Servpod sojourn statistics and end-to-end tail
latencies — everything the contribution analyzer and both thresholding
rules need. Per the paper this happens once per service, alongside the
pre-launch stress test, so its cost is linear in the number of Servpods.

Three collection modes:

- ``"tracer"`` — the full non-intrusive pipeline: emit kernel events for
  every profiled request, filter, match causality, reconstruct CPGs and
  read sojourns off them (the default, and what the paper's prototype
  does with SystemTap);
- ``"jaeger"`` — application-level tracing for microservice workloads
  that ship their own tracer (SNMS);
- ``"direct"`` — sample sojourns straight from the generative model
  (fast path for large benchmark grids; statistically identical).

Each load point of the sweep is profiled by :func:`profile_load_point`,
a pure function of ``(spec, load, root seed, sampling parameters)``
whose randomness comes from a child stream registry derived from those
coordinates alone. Load points are therefore mutually independent —
re-running one load re-draws exactly its own samples — which is what
lets :mod:`repro.parallel.profile` fan the sweep out across a process
pool and cache it at load-point granularity while staying bit-identical
to this serial sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.contribution import ContributionAnalyzer, ContributionResult
from repro.core.loadlimit import loadlimit_table, sojourn_mean_cov
from repro.errors import ProfilingError
from repro.sim.rng import RandomStreams
from repro.tracing.causality import CausalityMatcher
from repro.tracing.emitter import EmitterConfig, TraceEmitter, default_endpoints
from repro.tracing.jaeger import JaegerTracer
from repro.tracing.sojourn import SojournExtractor
from repro.workloads.service import Service
from repro.workloads.spec import ServiceSpec

#: Default profiling load grid: 2%..100% in 2% steps (the paper sweeps a
#: "broad spectrum of access loads"; Figure 8's crossings are at 1% grain).
DEFAULT_LOADS = tuple(round(0.02 * i, 2) for i in range(1, 51))

_MODES = ("tracer", "jaeger", "direct")


@dataclass
class ProfilingResult:
    """Solo-run sweep statistics for one LC service."""

    service: str
    loads: List[float]
    #: {servpod: [mean sojourn (ms) at each load]}
    mean_sojourns: Dict[str, List[float]] = field(default_factory=dict)
    #: {servpod: [sojourn CoV across requests at each load]}
    covs: Dict[str, List[float]] = field(default_factory=dict)
    #: tail latency (ms) at each load
    tails: List[float] = field(default_factory=list)

    @classmethod
    def from_points(
        cls, service: str, points: Sequence["LoadPointProfile"]
    ) -> "ProfilingResult":
        """Assemble a sweep result from independent load-point profiles.

        ``points`` must be in ascending-load (sweep) order; this is the
        inverse of running :func:`profile_load_point` per load.
        """
        result = cls(service=service, loads=[p.load for p in points])
        if not points:
            return result
        pods = [pod for pod, _ in points[0].mean_sojourns]
        result.mean_sojourns = {pod: [] for pod in pods}
        result.covs = {pod: [] for pod in pods}
        for point in points:
            means = dict(point.mean_sojourns)
            covs = dict(point.covs)
            for pod in pods:
                result.mean_sojourns[pod].append(means[pod])
                result.covs[pod].append(covs[pod])
            result.tails.append(point.tail_ms)
        return result


@dataclass(frozen=True)
class LoadPointProfile:
    """One load point's sweep statistics (the unit of sub-profile caching).

    Mappings are sorted ``(servpod, value)`` tuples so the profile is
    hashable, picklable and deterministic to serialise — the same
    conventions as :class:`~repro.parallel.artifact.RhythmArtifact`.
    """

    service: str
    load: float
    mean_sojourns: Tuple[Tuple[str, float], ...]
    covs: Tuple[Tuple[str, float], ...]
    tail_ms: float


def load_point_streams(spec_name: str, load: float, root_seed: int) -> RandomStreams:
    """The stream registry of one ``(service, load, seed)`` sweep point.

    Derived from the coordinates alone, so any process (or cached
    re-run) profiling this point draws exactly the same samples.
    """
    return RandomStreams(root_seed).spawn(f"profile:{spec_name}:{load!r}")


def profile_load_point(
    spec: ServiceSpec,
    load: float,
    root_seed: int = 0,
    requests_per_load: int = 300,
    tail_samples: int = 2500,
    mode: str = "tracer",
    noise_per_request: float = 2.0,
) -> LoadPointProfile:
    """Profile one load point of the solo-run sweep (pure, independent).

    Collects per-Servpod sojourn statistics (via the chosen collection
    mode) and the end-to-end tail at ``load``, drawing only from this
    point's own :func:`load_point_streams` registry.
    """
    if mode not in _MODES:
        raise ProfilingError(f"unknown profiling mode {mode!r}; pick from {_MODES}")
    streams = load_point_streams(spec.name, load, root_seed)
    service = Service(spec, streams)
    per_pod = _collect_sojourns(
        spec, service, streams, load, requests_per_load, mode, noise_per_request
    )
    means: List[Tuple[str, float]] = []
    covs: List[Tuple[str, float]] = []
    for pod in spec.servpod_names:
        values = per_pod.get(pod, [])
        if not values:
            raise ProfilingError(
                f"{spec.name}: no sojourns observed at {pod!r} (load {load})"
            )
        mean, cov = sojourn_mean_cov(values)
        means.append((pod, mean))
        covs.append((pod, cov))
    tail = service.tail_latency(load, tail_samples)
    return LoadPointProfile(
        service=spec.name,
        load=float(load),
        mean_sojourns=tuple(means),
        covs=tuple(covs),
        tail_ms=tail,
    )


def _collect_sojourns(
    spec: ServiceSpec,
    service: Service,
    streams: RandomStreams,
    load: float,
    requests_per_load: int,
    mode: str,
    noise_per_request: float,
) -> Dict[str, List[float]]:
    """Per-request sojourn samples per Servpod at one load level."""
    if mode == "direct":
        sampled = service.sample_sojourns(load, requests_per_load)
        out: Dict[str, List[float]] = {}
        for pod in spec.servpod_names:
            arr = sampled[pod]
            out[pod] = arr[arr > 0].tolist()
        return out

    records = service.build_request_records(load, requests_per_load)
    if mode == "jaeger":
        tracer = JaegerTracer()
        tracer.record(records)
        return tracer.per_request()

    endpoints = default_endpoints(spec.servpod_names)
    emitter = TraceEmitter(
        endpoints,
        EmitterConfig(
            blocking=True,
            persistent_connections=False,
            noise_per_request=noise_per_request,
            seed=streams.stream("profiler:emitter-seed").integers(0, 2**31),
        ),
    )
    events = emitter.emit(records)
    extractor = SojournExtractor(CausalityMatcher(endpoints))
    return extractor.per_request(events)


class ServiceProfiler:
    """Runs the solo-run profiling sweep for one LC service."""

    def __init__(
        self,
        service: ServiceSpec,
        streams: Optional[RandomStreams] = None,
        loads: Sequence[float] = DEFAULT_LOADS,
        requests_per_load: int = 300,
        tail_samples: int = 2500,
        mode: str = "tracer",
        noise_per_request: float = 2.0,
    ) -> None:
        if mode not in _MODES:
            raise ProfilingError(f"unknown profiling mode {mode!r}; pick from {_MODES}")
        if len(loads) < 3:
            raise ProfilingError("profiling needs >= 3 load levels")
        if requests_per_load < 10 or tail_samples < 100:
            raise ProfilingError(
                f"too few samples: requests={requests_per_load}, tail={tail_samples}"
            )
        self.spec = service
        self.streams = streams or RandomStreams(0)
        self.loads = [float(u) for u in loads]
        self.requests_per_load = int(requests_per_load)
        self.tail_samples = int(tail_samples)
        self.mode = mode
        self.noise_per_request = float(noise_per_request)

    # -- the sweep ----------------------------------------------------------

    def profile(self) -> ProfilingResult:
        """Run the sweep and return the collected statistics.

        Each load point is an independent :func:`profile_load_point`
        call, so this serial sweep is bit-identical to the fanned-out
        pipeline in :mod:`repro.parallel.profile` by construction.
        """
        points = [self.profile_point(load) for load in self.loads]
        return ProfilingResult.from_points(self.spec.name, points)

    def profile_point(self, load: float) -> LoadPointProfile:
        """Profile one load point with this profiler's parameters."""
        return profile_load_point(
            self.spec,
            load,
            root_seed=self.streams.seed,
            requests_per_load=self.requests_per_load,
            tail_samples=self.tail_samples,
            mode=self.mode,
            noise_per_request=self.noise_per_request,
        )

    # -- derived analyses ------------------------------------------------

    def contributions(self, result: Optional[ProfilingResult] = None) -> ContributionResult:
        """Equations 1–5 over the sweep."""
        result = result or self.profile()
        analyzer = ContributionAnalyzer(self.spec)
        return analyzer.analyze(result.mean_sojourns, result.tails)

    def loadlimits(self, result: Optional[ProfilingResult] = None) -> Dict[str, float]:
        """Per-Servpod loadlimits from the CoV curves (Figure 8 rule)."""
        result = result or self.profile()
        return loadlimit_table(result.loads, result.covs)
