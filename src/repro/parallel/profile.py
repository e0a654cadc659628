"""The profiling pipeline: the one route from a service to its thresholds.

Every caller that needs Rhythm's loadlimits, slacklimits or controllers
takes the :class:`~repro.parallel.artifact.RhythmArtifact` that
:func:`profile_service_parallel` builds; the serial
:class:`~repro.core.rhythm.Rhythm` pipeline
(:func:`repro.experiments.runner.get_rhythm`) stays as its reference.
The service picks its own profiling mode
(:func:`~repro.workloads.catalog.service_profiling_mode`), so a service
gets the same thresholds from every command.

Profiling runs the full solo-run load sweep (50 load points) and then
Algorithm 1's SLA probe walks. Both stages are embarrassingly parallel
once their randomness is derived from task coordinates instead of
consumption order:

- a **sweep task** profiles one ``(service, load)`` point via
  :func:`repro.core.profiler.profile_load_point`, whose streams come
  from ``(service, load, seed)`` alone;
- a **slacklimit task** runs one Servpod's Algorithm-1 walk via
  :func:`repro.core.slacklimit.find_slacklimit_for_pod`, rebuilding the
  SLA probe inside the worker from the derived loadlimits
  (:func:`repro.experiments.runner.sla_probe_for`); the probe draws from
  streams named after the *candidate configuration*, so any process
  evaluating a candidate uses the same randomness.

Tasks fan out through the persistent pool of :mod:`repro.parallel.pool`
— the same pool the grid engine uses, so a cold figure run pays pool
startup exactly once — with the :class:`~repro.workloads.spec.ServiceSpec`
broadcast once instead of pickled per task. Results are bit-identical to
the serial :class:`repro.core.rhythm.Rhythm` pipeline by construction
(asserted in ``tests/test_profile_parallel.py``).

Sub-profile results are content-addressed in the
:class:`~repro.cache.store.CacheStore` at load-point granularity: each
:class:`~repro.core.profiler.LoadPointProfile` and each per-Servpod
slacklimit is cached under a key of exactly its inputs. Changing the
evaluation BE mix therefore invalidates only the slacklimit searches
(their keys include the BE specs); changing one load leaves every other
load point's entry valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cache.keys import stable_hash
from repro.cache.store import CacheStore, default_store
from repro.core.contribution import ContributionAnalyzer, ContributionResult
from repro.core.loadlimit import loadlimit_table
from repro.core.profiler import LoadPointProfile, ProfilingResult, profile_load_point
from repro.core.rhythm import RhythmConfig
from repro.core.slacklimit import (
    find_slacklimit_for_pod,
    violation_free_fixed_point,
)
from repro.errors import CacheKeyError, ProfilingError
from repro.parallel.artifact import RhythmArtifact
from repro.parallel.pool import (
    BroadcastRef,
    Envelope,
    broadcast,
    resolve_profile_workers,
    resolve_ref,
    run_envelopes,
)
from repro.workloads.catalog import service_profiling_mode
from repro.workloads.spec import ServiceSpec

#: Per-request trace noise of the profiling emitter — the
#: :class:`~repro.core.profiler.ServiceProfiler` default, which
#: :class:`~repro.core.rhythm.RhythmConfig` does not override.
_NOISE_PER_REQUEST = 2.0


@dataclass
class ProfileStats:
    """Work accounting of one profiling invocation.

    ``*_executed`` counts tasks that actually simulated; a warm cache
    re-run reports 0 for both (asserted in ``tests/test_parallel.py``).
    """

    #: Load points the sweep covered / simulated / served from cache.
    sweep_points: int = 0
    sweep_executed: int = 0
    sweep_cache_hits: int = 0
    #: Per-Servpod Algorithm-1 walks covered / executed / cached.
    slack_walks: int = 0
    slack_executed: int = 0
    slack_cache_hits: int = 0
    #: Whole services served from the artifact-level fast path.
    artifact_cache_hits: int = 0

    def merge(self, other: "ProfileStats") -> None:
        """Accumulate another invocation's counts into this one."""
        self.sweep_points += other.sweep_points
        self.sweep_executed += other.sweep_executed
        self.sweep_cache_hits += other.sweep_cache_hits
        self.slack_walks += other.slack_walks
        self.slack_executed += other.slack_executed
        self.slack_cache_hits += other.slack_cache_hits
        self.artifact_cache_hits += other.artifact_cache_hits


#: In-process artifact memo: one process profiles each (service spec,
#: seed, probe, profile signature) at most once, even without a store.
#: Keyed on the spec itself (frozen, hashed by content), so two specs
#: that share a name but differ in any field never share an artifact.
_ARTIFACT_MEMO: Dict[Tuple, RhythmArtifact] = {}


def clear_profile_memo() -> None:
    """Drop the in-process artifact memo (tests use this for isolation)."""
    _ARTIFACT_MEMO.clear()


def resolve_store(cache: Union[None, bool, CacheStore]) -> Optional[CacheStore]:
    """Normalize a ``cache`` argument to a store (or no caching).

    ``None``/``False`` disable caching; ``True`` uses the
    environment-default store (which ``RHYTHM_CACHE=off`` may veto);
    a :class:`CacheStore` is used as given.
    """
    if isinstance(cache, CacheStore):
        return cache
    if cache:
        return default_store()
    return None


# -- cache keys -----------------------------------------------------------


def _profile_signature(cfg: RhythmConfig, probe_duration_s: float) -> Tuple:
    """The result-affecting profile inputs beyond (service, seed, probe).

    A whole-artifact entry is only valid for the exact sweep grid and
    sample budget that produced it; the drift scenarios re-profile the
    same service under *shifting* grids, so these must be memo/key
    coordinates or a stale artifact would be served across epochs.
    """
    return (
        tuple(float(u) for u in cfg.loads),
        int(cfg.requests_per_load),
        int(cfg.tail_samples),
        float(cfg.min_slacklimit),
        float(probe_duration_s),
    )


#: The signature of the default pipeline configuration. Artifacts keyed
#: under it hash exactly as they did before the signature existed, so
#: default-config entries (the overwhelmingly common case) stay valid.
_DEFAULT_PROFILE_SIGNATURE = _profile_signature(RhythmConfig(), 600.0)


def artifact_cache_key(
    service: ServiceSpec,
    seed: int,
    profiling_mode: str,
    probe_slacklimits: bool,
    profile_signature: Optional[Tuple] = None,
) -> str:
    """The content address of one service's profiling artifact.

    ``profile_signature`` (see :func:`_profile_signature`) pins the
    sweep grid and sample budget; ``None`` or the default signature
    reproduces the historical key, keeping existing entries warm.
    """
    if (
        profile_signature is None
        or profile_signature == _DEFAULT_PROFILE_SIGNATURE
    ):
        return stable_hash(
            ("rhythm-artifact", service, seed, profiling_mode, probe_slacklimits)
        )
    return stable_hash(
        (
            "rhythm-artifact",
            service,
            seed,
            profiling_mode,
            probe_slacklimits,
            profile_signature,
        )
    )


def load_point_cache_key(
    service: ServiceSpec,
    load: float,
    seed: int,
    requests_per_load: int,
    tail_samples: int,
    mode: str,
    noise_per_request: float = _NOISE_PER_REQUEST,
) -> str:
    """The content address of one ``(service, load)`` sweep point.

    Keys on exactly the inputs of :func:`profile_load_point`, so editing
    one load of the sweep grid invalidates only that load's entry.
    """
    return stable_hash(
        (
            "profile-point",
            service,
            float(load),
            seed,
            requests_per_load,
            tail_samples,
            mode,
            noise_per_request,
        )
    )


def slacklimit_cache_key(
    service: ServiceSpec,
    pod: str,
    loadlimits: Mapping[str, float],
    contributions: Mapping[str, float],
    seed: int,
    probe_duration_s: float,
) -> str:
    """The content address of one Servpod's Algorithm-1 walk.

    Keys on the *derived* loadlimit and contribution values (not the raw
    sweep) plus the evaluation BE mix the probe co-locates — so a
    BE-catalog change invalidates only the slacklimit searches, while an
    unchanged derivation reuses them even if the sweep itself re-ran.
    """
    from repro.bejobs.catalog import evaluation_be_jobs

    return stable_hash(
        (
            "slacklimit-pod",
            service,
            pod,
            tuple(sorted(loadlimits.items())),
            tuple(sorted(contributions.items())),
            seed,
            float(probe_duration_s),
            tuple(evaluation_be_jobs()),
        )
    )


# -- task functions (module-level: picklable by reference) ----------------


def _sweep_task(
    spec_ref: BroadcastRef,
    load: float,
    seed: int,
    requests_per_load: int,
    tail_samples: int,
    mode: str,
) -> LoadPointProfile:
    """Worker-side sweep task: profile one load point."""
    spec = resolve_ref(spec_ref)
    return profile_load_point(
        spec,
        load,
        root_seed=seed,
        requests_per_load=requests_per_load,
        tail_samples=tail_samples,
        mode=mode,
        noise_per_request=_NOISE_PER_REQUEST,
    )


def _slack_task(
    spec_ref: BroadcastRef,
    pod: str,
    loadlimit_items: Tuple[Tuple[str, float], ...],
    contribution_items: Tuple[Tuple[str, float], ...],
    seed: int,
    probe_duration_s: float,
) -> float:
    """Worker-side slacklimit task: one Servpod's Algorithm-1 walk.

    The probe is rebuilt inside the worker from the derived loadlimits —
    identical to the parent-side probe because its randomness is derived
    from the candidate configuration, not from call order.
    """
    from repro.experiments.runner import sla_probe_for

    spec = resolve_ref(spec_ref)
    probe = sla_probe_for(
        spec,
        dict(loadlimit_items),
        seed=seed,
        probe_duration_s=probe_duration_s,
    )
    return find_slacklimit_for_pod(pod, dict(contribution_items), probe)


# -- the pipeline ---------------------------------------------------------


def profile_service_parallel(
    service: ServiceSpec,
    seed: int = 0,
    probe_slacklimits: bool = True,
    probe_duration_s: float = 600.0,
    workers: Optional[int] = None,
    cache: Union[None, bool, CacheStore] = None,
    config: Optional[RhythmConfig] = None,
    stats: Optional[ProfileStats] = None,
) -> RhythmArtifact:
    """Profile one service with the sweep and probe walks fanned out.

    Bit-identical to ``artifact_for`` (the serial
    :class:`~repro.core.rhythm.Rhythm` pipeline) for the same arguments:
    the same load points draw the same samples, the same Algorithm-1
    candidates probe with the same streams, and the same clamp is
    applied. ``workers`` resolves through
    :func:`~repro.parallel.pool.resolve_profile_workers`; 1 runs inline.
    The profiling mode comes from
    :func:`~repro.workloads.catalog.service_profiling_mode` alone;
    ``config`` supplies the sweep grid, sample budget and slacklimit
    floor.

    With a ``cache``, three granularities are consulted, coarsest first:
    the whole artifact, each load point, each Servpod's slacklimit walk.
    A warm re-run executes zero simulations (see ``stats``).
    """
    cfg = config or RhythmConfig()
    mode = service_profiling_mode(service)
    stats = stats if stats is not None else ProfileStats()
    signature = _profile_signature(cfg, probe_duration_s)
    memo_key = (service, seed, probe_slacklimits, signature)
    memo_hit = _ARTIFACT_MEMO.get(memo_key)
    if memo_hit is not None:
        stats.artifact_cache_hits += 1
        return memo_hit
    store = resolve_store(cache)

    art_key: Optional[str] = None
    if store is not None:
        try:
            art_key = artifact_cache_key(
                service, seed, mode, probe_slacklimits, signature
            )
        except CacheKeyError:
            art_key = None
        if art_key is not None:
            hit = store.get(art_key)
            if isinstance(hit, RhythmArtifact) and hit.service_name == service.name:
                stats.artifact_cache_hits += 1
                _ARTIFACT_MEMO[memo_key] = hit
                return hit

    # Mirror ServiceProfiler's up-front validation so the parallel path
    # rejects the same configurations before any fan-out.
    loads = [float(u) for u in cfg.loads]
    if len(loads) < 3:
        raise ProfilingError("profiling needs >= 3 load levels")
    if cfg.requests_per_load < 10 or cfg.tail_samples < 100:
        raise ProfilingError(
            f"too few samples: requests={cfg.requests_per_load}, "
            f"tail={cfg.tail_samples}"
        )

    n_workers = resolve_profile_workers(workers)
    spec_ref = broadcast(service)

    # -- stage 1: the solo-run sweep, one task per load point ------------
    points: List[Optional[LoadPointProfile]] = [None] * len(loads)
    point_keys: List[Optional[str]] = [None] * len(loads)
    pending: List[int] = []
    stats.sweep_points += len(loads)
    for i, load in enumerate(loads):
        key: Optional[str] = None
        if store is not None:
            try:
                key = load_point_cache_key(
                    service, load, seed, cfg.requests_per_load,
                    cfg.tail_samples, mode,
                )
            except CacheKeyError:
                key = None
        if key is not None:
            hit = store.get(key)
            if (
                isinstance(hit, LoadPointProfile)
                and hit.service == service.name
                and hit.load == load
            ):
                points[i] = hit
                stats.sweep_cache_hits += 1
                continue
        point_keys[i] = key
        pending.append(i)
    if pending:
        computed = run_envelopes(
            [
                Envelope(
                    fn=_sweep_task,
                    args=(
                        spec_ref, loads[i], seed,
                        cfg.requests_per_load, cfg.tail_samples, mode,
                    ),
                    refs=(spec_ref,),
                )
                for i in pending
            ],
            n_workers,
        )
        stats.sweep_executed += len(pending)
        for i, point in zip(pending, computed):
            points[i] = point
            if store is not None and point_keys[i] is not None:
                store.put(point_keys[i], point)

    result = ProfilingResult.from_points(service.name, points)
    contributions = ContributionAnalyzer(service).analyze(
        result.mean_sojourns, result.tails
    )
    loadlimits = loadlimit_table(result.loads, result.covs)

    # -- stage 2: slacklimits, one Algorithm-1 walk per Servpod ----------
    slacklimits = _derive_slacklimits(
        service, spec_ref, loadlimits, contributions, cfg,
        probe_slacklimits, probe_duration_s, seed, n_workers, store, stats,
    )

    artifact = RhythmArtifact(
        service_name=service.name,
        sla_ms=service.sla_ms,
        servpod_names=tuple(service.servpod_names),
        loadlimits=tuple(sorted(loadlimits.items())),
        slacklimits=tuple(sorted(slacklimits.items())),
        contributions=tuple(sorted(contributions.normalized().items())),
        seed=seed,
        profiling_mode=mode,
        probe_slacklimits=probe_slacklimits,
    )
    if store is not None and art_key is not None:
        store.put(art_key, artifact)
    _ARTIFACT_MEMO[memo_key] = artifact
    return artifact


def _derive_slacklimits(
    service: ServiceSpec,
    spec_ref: BroadcastRef,
    loadlimits: Dict[str, float],
    contributions: ContributionResult,
    cfg: RhythmConfig,
    probe_slacklimits: bool,
    probe_duration_s: float,
    seed: int,
    n_workers: int,
    store: Optional[CacheStore],
    stats: ProfileStats,
) -> Dict[str, float]:
    """Stage 2: per-Servpod slacklimits, clamped exactly as Rhythm does."""
    raw = {
        pod: c.contribution for pod, c in contributions.contributions.items()
    }
    floor = cfg.min_slacklimit
    if not probe_slacklimits:
        # The analytic fixed point is a cheap closed form; no fan-out.
        fixed = violation_free_fixed_point(raw)
        return {pod: max(floor, min(1.0, v)) for pod, v in fixed.items()}

    pods = list(raw)
    stats.slack_walks += len(pods)
    loadlimit_items = tuple(sorted(loadlimits.items()))
    contribution_items = tuple(sorted(raw.items()))
    limits: Dict[str, Optional[float]] = {pod: None for pod in pods}
    slack_keys: Dict[str, Optional[str]] = {}
    pending: List[str] = []
    for pod in pods:
        key: Optional[str] = None
        if store is not None:
            try:
                key = slacklimit_cache_key(
                    service, pod, loadlimits, raw, seed, probe_duration_s
                )
            except CacheKeyError:
                key = None
        if key is not None:
            hit = store.get(key)
            if isinstance(hit, float):
                limits[pod] = hit
                stats.slack_cache_hits += 1
                continue
        slack_keys[pod] = key
        pending.append(pod)
    if pending:
        computed = run_envelopes(
            [
                Envelope(
                    fn=_slack_task,
                    args=(
                        spec_ref, pod, loadlimit_items, contribution_items,
                        seed, probe_duration_s,
                    ),
                    refs=(spec_ref,),
                )
                for pod in pending
            ],
            n_workers,
        )
        stats.slack_executed += len(pending)
        for pod, value in zip(pending, computed):
            limits[pod] = value
            if store is not None and slack_keys[pod] is not None:
                store.put(slack_keys[pod], float(value))
    return {pod: max(floor, min(1.0, limits[pod])) for pod in pods}


def profile_services_parallel(
    cells: Sequence,
    seed_by_service: Optional[Mapping[str, int]] = None,
    probe_slacklimits: bool = True,
    cache: Union[None, bool, CacheStore] = None,
    workers: Optional[int] = None,
    stats: Optional[ProfileStats] = None,
) -> Dict[str, RhythmArtifact]:
    """Profile every distinct service of a cell list, fanned out.

    Each service profiles at the seed of its first cell unless
    ``seed_by_service`` overrides it. The sweep and the Algorithm-1
    walks run through the shared worker pool (``workers`` resolves via
    :func:`~repro.parallel.pool.resolve_profile_workers`); with a
    ``cache``, artifacts and their sub-profiles are memoized on disk, so
    a warm process skips every sweep simulation (pass a
    :class:`ProfileStats` to see the counts).
    """
    artifacts: Dict[str, RhythmArtifact] = {}
    for cell in cells:
        name = cell.service.name
        if name in artifacts:
            continue
        seed = (
            seed_by_service[name]
            if seed_by_service is not None and name in seed_by_service
            else cell.seed
        )
        artifacts[name] = profile_service_parallel(
            cell.service,
            seed=seed,
            probe_slacklimits=probe_slacklimits,
            workers=workers,
            cache=cache,
            stats=stats,
        )
    return artifacts
