"""The parallel grid execution engine.

The paper's evaluation is dominated by grids: Figures 9–11 alone are
5 Servpods × 6 BE jobs × 5 loads, each cell simulated once under Rhythm
and once under Heracles. Cells are mutually independent by construction
(each builds its own engine, RNG registry and machines from a cell seed),
so the grid is embarrassingly parallel — *provided* the profiling
artifacts can cross a process boundary. The flow is:

1. the parent profiles every distinct service once, through
   :func:`~repro.parallel.profile.profile_services_parallel` (its sweep
   and Algorithm-1 walks fan out through the same pool), into a
   picklable :class:`~repro.parallel.artifact.RhythmArtifact` per
   service,
2. cells fan out to a process pool as :class:`GridCell` tasks carrying
   only specs, artifacts and seeds,
3. each worker runs the cell through
   :func:`~repro.experiments.runner.compare_with_artifact`, the same
   routine the serial :func:`~repro.experiments.runner.compare_systems`
   runs.

Determinism: a cell's simulation consumes only its own
``RandomStreams(cell.seed)``, so results are bit-identical no matter
which worker runs the cell or in which order cells complete —
``run_comparison_grid(cells, workers=1)`` and ``workers=N`` return
identical results (asserted in ``tests/test_parallel.py``).

Worker count resolves from the ``RHYTHM_WORKERS`` environment variable,
falling back to ``os.cpu_count()``. ``workers=1`` (or a single cell)
runs inline without a pool.

Incremental re-execution: pass ``cache=True`` (the environment-default
store) or an explicit :class:`~repro.cache.store.CacheStore` and the
grid becomes content-addressed — profiling artifacts and finished cell
results are memoized on disk keyed by a stable hash of the fully
resolved cell config (see :mod:`repro.cache.keys`), so a warm re-run of
an unchanged grid executes zero simulations. Hit/miss/skip counts are
reported through :class:`~repro.cache.store.CacheOutcomes`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.baselines.heracles import HeraclesPolicy
from repro.bejobs.spec import BeJobSpec
from repro.cache.keys import stable_hash
from repro.cache.store import CacheOutcomes, CacheStore
from repro.errors import CacheKeyError, ExperimentError
from repro.experiments.colocation import ColocationConfig, ColocationResult
from repro.experiments.runner import ComparisonResult, compare_with_artifact
from repro.loadgen.patterns import ConstantLoad, LoadPattern
from repro.parallel.artifact import RhythmArtifact
from repro.parallel.pool import (
    WORKERS_ENV_VAR,
    BroadcastRef,
    Envelope,
    broadcast,
    resolve_ref,
    resolve_workers,
    run_envelopes,
)
from repro.parallel.profile import (
    ProfileStats,
    artifact_cache_key,
    profile_services_parallel,
    resolve_store as _resolve_store,
)
from repro.workloads.spec import ServiceSpec

__all__ = [
    "WORKERS_ENV_VAR",
    "GridCell",
    "artifact_cache_key",
    "cell_cache_key",
    "colocation_fingerprint",
    "comparison_fingerprint",
    "derive_cell_seed",
    "resolve_workers",
    "run_comparison_grid",
]


def derive_cell_seed(
    root_seed: int, service: str, be_job: str, load: float, salt: str = "cell"
) -> int:
    """A deterministic, collision-resistant per-cell seed.

    Hashes the cell coordinates so every (service, BE, load) cell gets an
    independent seed derived from one root — the parallel analogue of
    :meth:`repro.sim.rng.RandomStreams.spawn`. Grids that want the
    paper's paired-seed variance reduction (every cell reuses the root
    seed) simply skip this derivation.
    """
    digest = hashlib.sha256(
        f"{salt}:{root_seed}:{service}:{be_job}:{load!r}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little") >> 1  # 63-bit, non-negative


@dataclass(frozen=True)
class GridCell:
    """One grid cell: a (service, BE job, load) point at one seed."""

    service: ServiceSpec
    be_spec: BeJobSpec
    load: float
    seed: int = 0
    #: Optional load pattern; ``None`` means ``ConstantLoad(load)``.
    pattern: Optional[LoadPattern] = None


@dataclass(frozen=True)
class _CellTask:
    """A shipped unit of work: the cell plus everything it needs."""

    cell: GridCell
    artifact: RhythmArtifact
    heracles_policy: HeraclesPolicy
    config: Optional[ColocationConfig]


def _execute_task(task: _CellTask) -> ComparisonResult:
    """Run one cell under both systems (worker side, also used inline)."""
    cell = task.cell
    return compare_with_artifact(
        cell.service,
        task.artifact,
        cell.be_spec,
        cell.load,
        seed=cell.seed,
        config=task.config,
        pattern=cell.pattern,
        heracles_policy=task.heracles_policy,
    )


def _execute_cell(
    cell: GridCell,
    artifact_ref: BroadcastRef,
    heracles_policy: HeraclesPolicy,
    config: Optional[ColocationConfig],
) -> ComparisonResult:
    """Worker-side cell execution against a broadcast artifact.

    The artifact travels as a digest-addressed ref (pickled once per
    broadcast, not once per cell); everything else in the envelope is
    cell-specific anyway.
    """
    return _execute_task(
        _CellTask(
            cell=cell,
            artifact=resolve_ref(artifact_ref),
            heracles_policy=heracles_policy,
            config=config,
        )
    )


# -- content-addressed caching -------------------------------------------


#: The grid's old name for :class:`~repro.cache.store.CacheOutcomes`
#: (one unit per cell). Only ``repobench/workloads.py`` still imports
#: it; the next change to that benchmark drops this alias.
GridCacheStats = CacheOutcomes


def cell_cache_key(task: _CellTask) -> str:
    """The content address of one grid cell's comparison result.

    Hashes everything a cell result depends on: the resolved service and
    BE specs, load pattern, seed, the *profiled* artifact (so a changed
    profiling outcome invalidates dependent cells), the Heracles policy
    and the fully defaulted run config. Raises
    :class:`~repro.errors.CacheKeyError` for unhashable configs (e.g. a
    pattern wrapping a bare callable); such cells simply run uncached.
    """
    cell = task.cell
    pattern = cell.pattern if cell.pattern is not None else ConstantLoad(cell.load)
    config = task.config if task.config is not None else ColocationConfig()
    return stable_hash(
        (
            "grid-cell",
            cell.service,
            cell.be_spec,
            cell.load,
            cell.seed,
            pattern,
            task.artifact,
            task.heracles_policy,
            config,
        )
    )


def run_comparison_grid(
    cells: Sequence[GridCell],
    config: Optional[ColocationConfig] = None,
    workers: Optional[int] = None,
    heracles_policy: HeraclesPolicy = HeraclesPolicy(),
    probe_slacklimits: bool = True,
    artifacts: Optional[Mapping[str, RhythmArtifact]] = None,
    cache: Union[None, bool, CacheStore] = None,
    cache_stats: Optional[CacheOutcomes] = None,
    profile_workers: Optional[int] = None,
    profile_stats: Optional[ProfileStats] = None,
) -> List[ComparisonResult]:
    """Run every cell under Rhythm and Heracles; results in input order.

    Profiling happens once per distinct service (unless pre-built
    ``artifacts`` are supplied) with its sweep and Algorithm-1 walks
    fanned out through the shared worker pool; the cell phase then
    reuses that same pool — a cold figure run pays pool startup exactly
    once. Artifacts cross the pool boundary as broadcast refs, pickled
    once per grid instead of once per cell. With ``workers=1`` (or one
    cell) everything runs inline in this process — the pool path
    produces bit-identical results. ``profile_workers`` overrides the
    profiling fan-out width (default: ``RHYTHM_PROFILE_WORKERS``, then
    the grid's own worker resolution).

    With a ``cache`` (``True`` for the environment default, or an
    explicit :class:`~repro.cache.store.CacheStore`), each cell's result
    is looked up by its content address before any simulation runs: hits
    are returned as-is (bit-identical to a cold run — the stored object
    *is* the cold result), misses are computed and stored. Pass a
    :class:`~repro.cache.store.CacheOutcomes` as ``cache_stats`` to
    receive the hit/miss/skip counts of this invocation (and a
    :class:`~repro.parallel.profile.ProfileStats` as ``profile_stats``
    for the profiling-phase counts).
    """
    cells = list(cells)
    if not cells:
        return []
    store = _resolve_store(cache)
    stats = cache_stats if cache_stats is not None else CacheOutcomes()
    if artifacts is None:
        artifacts = profile_services_parallel(
            cells,
            probe_slacklimits=probe_slacklimits,
            cache=store,
            workers=profile_workers,
            stats=profile_stats,
        )
    missing = {c.service.name for c in cells} - set(artifacts)
    if missing:
        raise ExperimentError(f"no artifacts for services {sorted(missing)}")
    tasks = [
        _CellTask(
            cell=cell,
            artifact=artifacts[cell.service.name],
            heracles_policy=heracles_policy,
            config=config,
        )
        for cell in cells
    ]

    # Cache lookup pass: resolve every cell to a hit or a pending slot.
    results: List[Optional[ComparisonResult]] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    pending: List[int] = []
    for i, task in enumerate(tasks):
        if store is None:
            stats.skipped += 1
            pending.append(i)
            continue
        try:
            keys[i] = cell_cache_key(task)
        except CacheKeyError:
            stats.skipped += 1
            pending.append(i)
            continue
        hit = store.get(keys[i])
        if isinstance(hit, ComparisonResult):
            stats.hits += 1
            results[i] = hit
        else:
            stats.misses += 1
            pending.append(i)

    # Execution pass: only the unresolved cells run (inline or pooled).
    pending_tasks = [tasks[i] for i in pending]
    if pending_tasks:
        n_workers = min(resolve_workers(workers), len(pending_tasks))
        if n_workers <= 1:
            computed = [_execute_task(task) for task in pending_tasks]
        else:
            artifact_refs = {
                name: broadcast(artifact)
                for name, artifact in artifacts.items()
            }
            computed = run_envelopes(
                [
                    Envelope(
                        fn=_execute_cell,
                        args=(
                            task.cell,
                            artifact_refs[task.cell.service.name],
                            task.heracles_policy,
                            task.config,
                        ),
                        refs=(artifact_refs[task.cell.service.name],),
                    )
                    for task in pending_tasks
                ],
                n_workers,
            )
        for i, result in zip(pending, computed):
            results[i] = result
            if store is not None and keys[i] is not None:
                store.put(keys[i], result)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


# -- result fingerprints -------------------------------------------------
#
# ColocationResult nests accumulators without __eq__; these fingerprints
# reduce a result to plain tuples covering every reported quantity down
# to individual tick samples, so "bit-identical" is checkable with ==.


def colocation_fingerprint(result: ColocationResult) -> Tuple:
    """A deep, hashable fingerprint of one co-location result."""
    machines = []
    for pod in sorted(result.machines):
        metrics = result.machines[pod]
        machines.append(
            (
                pod,
                metrics.machine_name,
                metrics.completed_be_throughput,
                metrics.avg_emu,
                metrics.avg_cpu_utilisation,
                metrics.avg_membw_utilisation,
                metrics.tail.window_tails if metrics.tail is not None else (),
                tuple(metrics.tick_rows()),
            )
        )
    return (
        result.service,
        result.duration_s,
        result.lc_load_mean,
        result.be_kills,
        result.be_suspensions,
        result.sla_violations,
        result.worst_tail_ms,
        result.events_fired,
        tuple(machines),
    )


def comparison_fingerprint(result: ComparisonResult) -> Tuple:
    """A deep fingerprint of one Rhythm-vs-Heracles comparison."""
    return (
        result.service,
        result.be_job,
        result.load,
        colocation_fingerprint(result.rhythm),
        colocation_fingerprint(result.heracles),
    )
