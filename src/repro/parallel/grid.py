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
2. the cells still to run split into ``min(workers, pending)``
   contiguous chunks of about equal machine rows, and each chunk ships
   to the process pool as one envelope carrying its :class:`GridCell`
   specs and seeds plus the artifacts as broadcast refs,
3. each worker runs its whole chunk through
   :func:`~repro.experiments.runner.compare_cells`, the same routine
   the serial :func:`~repro.experiments.runner.compare_systems` runs: a
   chunk's simulations, Rhythm's and Heracles' alike, tick in lockstep
   as one :class:`~repro.sim.kernel.FleetColocationKernel` fleet.

Determinism: a simulation consumes only its own
``RandomStreams(cell.seed)``, and the fleet kernel is pinned
bit-identical to running its members one by one, so results do not
depend on how cells are chunked, which worker runs a chunk, or in which
order chunks complete — ``run_comparison_grid(cells, workers=1)`` and
``workers=N`` return identical results (asserted in
``tests/test_parallel.py``, which also compares both with per-cell runs).

Worker count resolves from the ``RHYTHM_WORKERS`` environment variable,
falling back to ``os.cpu_count()``. ``workers=1`` (or a single pending
cell) runs every pending cell inline, in one batch, without a pool.

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
from itertools import accumulate
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.baselines.heracles import HeraclesPolicy
from repro.bejobs.spec import BeJobSpec
from repro.cache.keys import stable_hash
from repro.cache.store import (
    CacheOutcomes,
    CacheStore,
    cache_lookup,
    resolve_store,
)
from repro.errors import ExperimentError
from repro.experiments.colocation import (
    ColocationConfig,
    ColocationResult,
    result_hash,
)
from repro.experiments.runner import (
    CellComparison,
    ComparisonResult,
    compare_cells,
)
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


def _execute_task(tasks: Sequence[_CellTask]) -> List[ComparisonResult]:
    """Run cells under both systems as one batch (inline, and per chunk
    in a worker): every simulation of ``tasks`` ticks in one kernel."""
    return compare_cells(
        [
            CellComparison(
                task.cell.service,
                task.artifact,
                task.cell.be_spec,
                task.cell.load,
                seed=task.cell.seed,
                config=task.config,
                pattern=task.cell.pattern,
                heracles_policy=task.heracles_policy,
            )
            for task in tasks
        ]
    )


def _execute_chunk(
    cells: Tuple[GridCell, ...],
    artifact_refs: Tuple[BroadcastRef, ...],
    heracles_policy: HeraclesPolicy,
    config: Optional[ColocationConfig],
) -> List[ComparisonResult]:
    """Worker-side execution of one chunk of cells.

    ``artifact_refs[i]`` is cell ``i``'s artifact as a digest-addressed
    ref (pickled once per broadcast, not once per chunk); everything
    else in the envelope is chunk-specific anyway.
    """
    return _execute_task(
        [
            _CellTask(
                cell=cell,
                artifact=resolve_ref(ref),
                heracles_policy=heracles_policy,
                config=config,
            )
            for cell, ref in zip(cells, artifact_refs)
        ]
    )


def _chunks(tasks: Sequence[_CellTask], n: int) -> List[Sequence[_CellTask]]:
    """``tasks`` in ``n`` non-empty contiguous chunks of about equal work.

    A cell's work grows with its machine rows (one per Servpod, under
    each system), so each cut lands where the running row count comes
    closest to an equal share.
    """
    rows = list(accumulate(len(t.cell.service.servpod_names) for t in tasks))
    cuts = [0]
    for k in range(1, n):
        share = rows[-1] * k / n
        cuts.append(
            min(
                range(cuts[-1] + 1, len(tasks) - (n - k) + 1),
                key=lambda end: abs(rows[end - 1] - share),
            )
        )
    cuts.append(len(tasks))
    return [tasks[a:b] for a, b in zip(cuts, cuts[1:])]


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
    once. The pending cells run as one batch per worker chunk (one
    fleet kernel each, Rhythm and Heracles runs together); artifacts
    cross the pool boundary as broadcast refs, pickled once per grid
    instead of once per chunk. With ``workers=1`` (or one pending cell)
    every pending cell runs inline in this process as one batch — the
    pool path produces bit-identical results. ``profile_workers``
    overrides the profiling fan-out width (default:
    ``RHYTHM_PROFILE_WORKERS``, then the grid's own worker resolution).

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
    store = resolve_store(cache)
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
        keys[i], results[i] = cache_lookup(
            store,
            lambda: cell_cache_key(task),
            lambda entry: isinstance(entry, ComparisonResult),
            stats,
        )
        if results[i] is None:
            pending.append(i)

    # Execution pass: only the unresolved cells run, as one batch inline
    # or as one batch per worker chunk.
    pending_tasks = [tasks[i] for i in pending]
    if pending_tasks:
        n_workers = min(resolve_workers(workers), len(pending_tasks))
        if n_workers <= 1:
            computed = _execute_task(pending_tasks)
        else:
            artifact_refs = {
                name: broadcast(artifact)
                for name, artifact in artifacts.items()
            }
            envelopes = []
            for chunk in _chunks(pending_tasks, n_workers):
                refs = tuple(
                    artifact_refs[task.cell.service.name] for task in chunk
                )
                envelopes.append(
                    Envelope(
                        fn=_execute_chunk,
                        args=(
                            tuple(task.cell for task in chunk),
                            refs,
                            heracles_policy,
                            config,
                        ),
                        refs=tuple(dict.fromkeys(refs)),
                    )
                )
            computed = [
                result
                for chunk_results in run_envelopes(envelopes, n_workers)
                for result in chunk_results
            ]
        for i, result in zip(pending, computed):
            results[i] = result
            if keys[i] is not None:
                store.put(keys[i], result)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


# -- result fingerprints -------------------------------------------------
#
# ColocationResult nests accumulators without __eq__; these fingerprints
# reduce a result to hex digests of every reported quantity down to
# individual tick samples, so "bit-identical" is checkable with ==.


def colocation_fingerprint(result: ColocationResult) -> str:
    """The hex digest of :func:`~repro.experiments.colocation.result_hash`:
    the result half of ``result_digest``, without the RNG states."""
    return result_hash(result).hexdigest()


def comparison_fingerprint(result: ComparisonResult) -> Tuple:
    """A deep fingerprint of one Rhythm-vs-Heracles comparison."""
    return (
        result.service,
        result.be_job,
        result.load,
        colocation_fingerprint(result.rhythm),
        colocation_fingerprint(result.heracles),
    )
