"""The persistent worker pool with artifact broadcast.

PR 1's grid engine created a fresh ``ProcessPoolExecutor`` per
``run_comparison_grid`` call and re-pickled every artifact into every
cell submission. Now that profiling itself fans out (see
:mod:`repro.parallel.profile`), a cold figure run would pay pool startup
twice and ship the same frozen :class:`~repro.parallel.artifact.RhythmArtifact`
dozens of times. This module fixes both:

**One pool per process.** :func:`get_pool` lazily creates a module-level
``ProcessPoolExecutor`` and every later caller — the profiling pipeline,
the grid engine, repeated CLI phases — reuses it. The pool is only
recreated when the caller needs *more* workers than it has or the
multiprocessing context changed; :func:`pool_constructions` counts
creations so tests can assert a cold grid run builds exactly one pool.

**Broadcast, not re-pickle.** :func:`broadcast` registers a frozen
object (an artifact, a service spec, a run config) in a parent-side
registry and hands back a tiny digest-addressed :class:`BroadcastRef`.
Task envelopes carry refs; workers resolve them against a local object
store populated three ways, cheapest first:

1. *fork inheritance* — objects broadcast before the pool existed are in
   the forked child's memory for free,
2. *seeding* — objects broadcast later are pushed once per worker by a
   barrier-synchronised absorb round (fork) or attached to the first
   envelope batch that needs them (spawn),
3. *miss-resubmit* — a worker that still lacks a digest (e.g. it was
   respawned) reports a miss and the parent resubmits that envelope with
   the payload attached; the worker caches it for every later task.

Worker counts resolve through :func:`resolve_workers` /
:func:`resolve_profile_workers`: explicit argument, then the
``RHYTHM_PROFILE_WORKERS`` / ``RHYTHM_WORKERS`` environment variables,
then ``os.cpu_count()``. Values below 1 clamp to 1 (a safe inline run);
non-integer values raise :class:`~repro.errors.ExperimentError` up
front instead of crashing inside ``ProcessPoolExecutor``.

**Chaos hardening.** Real worker processes crash, wedge and get OOM-
killed; :func:`run_envelopes` survives all three. Every envelope is
submitted individually with a per-task deadline
(:func:`resolve_task_timeout`, ``RHYTHM_TASK_TIMEOUT_S``); a failed or
expired attempt is retried up to ``max_retries`` times with the
payloads attached inline, and a task that exhausts its retries falls
back to running inline in the parent — so a transient fault costs a
retry while a genuinely buggy task surfaces its real traceback.
:class:`PoolStats` counts every recovery action. Fault *injection* for
tests rides the same envelopes: an
:class:`~repro.faults.executor.ExecutorFaultPlan` installed via
:func:`set_executor_fault_plan` sabotages first attempts
deterministically (see :mod:`repro.faults.executor`); because task
functions are pure and retries always run clean, executor-only faults
leave results bit-identical to a fault-free inline run.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import pickle
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait as _wait_futures,
)
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError, InjectedWorkerFault

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "RHYTHM_WORKERS"
#: Profiling-specific override; falls back to :data:`WORKERS_ENV_VAR`.
PROFILE_WORKERS_ENV_VAR = "RHYTHM_PROFILE_WORKERS"
#: Force a multiprocessing start method ("fork", "spawn", "forkserver").
MP_CONTEXT_ENV_VAR = "RHYTHM_MP_CONTEXT"
#: Per-task wall-clock deadline (seconds); <= 0 disables the timeout.
TASK_TIMEOUT_ENV_VAR = "RHYTHM_TASK_TIMEOUT_S"
#: Generous default: no legitimate cell/profile task takes 10 minutes.
DEFAULT_TASK_TIMEOUT_S = 600.0


# -- worker-count resolution ---------------------------------------------


def _coerce_workers(value: Any, source: str) -> int:
    """Validate one worker-count value; clamp sub-1 values to 1.

    ``source`` names where the value came from so the error message
    tells the user exactly what to fix.
    """
    if isinstance(value, bool):
        raise ExperimentError(
            f"{source} must be an integer worker count, got the boolean {value!r}"
        )
    if isinstance(value, float):
        if not value.is_integer():
            raise ExperimentError(
                f"{source} must be a whole number of workers, got {value!r}"
            )
        value = int(value)
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise ExperimentError(
                f"{source} must be an integer worker count "
                f"(e.g. 4), got {value!r}"
            ) from None
    if not isinstance(value, int):
        raise ExperimentError(
            f"{source} must be an integer worker count, got "
            f"{type(value).__name__} {value!r}"
        )
    # Zero or negative means "no parallelism": run inline rather than
    # handing ProcessPoolExecutor an invalid max_workers.
    return max(1, value)


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective grid worker count.

    Explicit ``workers`` wins; otherwise the ``RHYTHM_WORKERS``
    environment variable; otherwise ``os.cpu_count()``. Always >= 1.
    """
    if workers is not None:
        return _coerce_workers(workers, "workers")
    env = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if env:
        return _coerce_workers(env, WORKERS_ENV_VAR)
    return os.cpu_count() or 1


def resolve_profile_workers(workers: Optional[int] = None) -> int:
    """The effective profiling worker count.

    Explicit ``workers`` wins; then ``RHYTHM_PROFILE_WORKERS``; then
    ``RHYTHM_WORKERS`` (profiling shares the grid pool by design); then
    ``os.cpu_count()``. Always >= 1.
    """
    if workers is not None:
        return _coerce_workers(workers, "workers")
    env = os.environ.get(PROFILE_WORKERS_ENV_VAR, "").strip()
    if env:
        return _coerce_workers(env, PROFILE_WORKERS_ENV_VAR)
    return resolve_workers(None)


def resolve_task_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """The effective per-task deadline in seconds, or None for no limit.

    Explicit ``timeout`` wins; otherwise ``RHYTHM_TASK_TIMEOUT_S``;
    otherwise :data:`DEFAULT_TASK_TIMEOUT_S`. A value <= 0 disables the
    timeout entirely.
    """
    if timeout is not None:
        value = float(timeout)
    else:
        env = os.environ.get(TASK_TIMEOUT_ENV_VAR, "").strip()
        if env:
            try:
                value = float(env)
            except ValueError:
                raise ExperimentError(
                    f"{TASK_TIMEOUT_ENV_VAR} must be a number of seconds, "
                    f"got {env!r}"
                ) from None
        else:
            value = DEFAULT_TASK_TIMEOUT_S
    return value if value > 0 else None


# -- recovery accounting and fault-plan installation ----------------------


@dataclass
class PoolStats:
    """Counters for every submission and recovery action the pool took.

    ``retries`` counts re-queued attempts after a failure or timeout;
    ``inline_fallbacks`` counts tasks that exhausted their retries and
    ran in the parent instead. Under a crash-only
    :class:`~repro.faults.executor.ExecutorFaultPlan` the invariant
    ``task_failures == retries == plan-predicted crashes`` holds exactly
    (``tests/test_faults.py`` ``TestChaosHardenedPool`` asserts it).
    """

    #: Envelope attempts handed to the executor.
    submitted: int = 0
    #: Attempts that returned a result from a worker.
    completed: int = 0
    #: Attempts re-queued after any kind of failure.
    retries: int = 0
    #: Futures that died with the executor (process killed / pool broken).
    worker_crashes: int = 0
    #: Futures that raised an ordinary exception (incl. injected crashes).
    task_failures: int = 0
    #: Attempts abandoned because their deadline expired.
    timeouts: int = 0
    #: Tasks that ran in the parent after exhausting their retries.
    inline_fallbacks: int = 0
    #: Worker-side broadcast misses (resolved by blob-attached resubmit).
    broadcast_misses: int = 0
    #: Forced executor teardowns (timeout expiry or broken pool).
    pool_rebuilds: int = 0

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot (stable key order for reports)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "task_failures": self.task_failures,
            "timeouts": self.timeouts,
            "inline_fallbacks": self.inline_fallbacks,
            "broadcast_misses": self.broadcast_misses,
            "pool_rebuilds": self.pool_rebuilds,
        }


_POOL_STATS = PoolStats()

#: The installed executor fault plan (chaos testing only; None = no chaos).
_FAULT_PLAN: Any = None


def pool_stats() -> PoolStats:
    """The live counter object for this process's pool."""
    return _POOL_STATS


def reset_pool_stats() -> None:
    """Zero every pool counter (tests / fresh experiment phases)."""
    global _POOL_STATS
    _POOL_STATS = PoolStats()


def set_executor_fault_plan(plan: Any) -> None:
    """Install (or with None, remove) a sabotage plan for pooled tasks.

    The plan travels inside each envelope, so it works for fork and
    spawn contexts alike and never outlives the batch that shipped it.
    The inline path (``workers <= 1``) deliberately ignores it — the
    serial run is the fault-free reference the chaos tests compare
    against.
    """
    global _FAULT_PLAN
    _FAULT_PLAN = plan


# -- broadcast registry ---------------------------------------------------


@dataclass(frozen=True)
class BroadcastRef:
    """A digest-addressed handle to a broadcast object (cheap to ship)."""

    digest: str


class BroadcastMissError(ExperimentError):
    """A worker lacked broadcast payloads (resolved by resubmission)."""

    def __init__(self, digests: Sequence[str]) -> None:
        super().__init__(f"missing broadcast payloads {sorted(digests)}")
        self.digests = tuple(digests)


#: Parent-side registry: digest -> live object / pickled blob.
_PARENT_OBJECTS: Dict[str, Any] = {}
_PARENT_BLOBS: Dict[str, bytes] = {}
#: Worker-side object store (also used by fork children via inheritance
#: of _PARENT_OBJECTS; this dict holds explicitly seeded payloads).
_WORKER_OBJECTS: Dict[str, Any] = {}


def broadcast(obj: Any) -> BroadcastRef:
    """Register ``obj`` for worker-side resolution; returns its ref.

    The object is pickled exactly once here, no matter how many task
    envelopes reference it afterwards.
    """
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    if digest not in _PARENT_OBJECTS:
        _PARENT_OBJECTS[digest] = obj
        _PARENT_BLOBS[digest] = blob
    return BroadcastRef(digest)


def resolve_ref(ref: BroadcastRef) -> Any:
    """Look a ref up in the local object store (worker or parent).

    Resolution order: explicitly seeded worker store, then the (possibly
    fork-inherited) parent registry. Raises :class:`BroadcastMissError`
    when neither has it — the pool turns that into a resubmission with
    the payload attached.
    """
    obj = _WORKER_OBJECTS.get(ref.digest)
    if obj is not None:
        return obj
    obj = _PARENT_OBJECTS.get(ref.digest)
    if obj is not None:
        return obj
    raise BroadcastMissError([ref.digest])


def _absorb_blobs(blobs: Dict[str, bytes]) -> None:
    """Unpickle payloads into the worker-side store (idempotent)."""
    for digest, blob in blobs.items():
        if digest not in _WORKER_OBJECTS:
            _WORKER_OBJECTS[digest] = pickle.loads(blob)


def _worker_init(blobs: Dict[str, bytes]) -> None:
    """Pool initializer: seed the store with the creation-time snapshot."""
    _absorb_blobs(blobs)


def _absorb_task(blobs: Dict[str, bytes]) -> int:
    """Seeding task: absorb payloads, then rendezvous so every worker
    takes exactly one absorb task instead of a fast worker draining the
    whole round.

    The barrier reaches fork workers through module-state inheritance
    (`_STATE.barrier` was created before the worker forked); it cannot
    travel as a task argument because multiprocessing synchronisation
    primitives refuse to pickle.
    """
    _absorb_blobs(blobs)
    barrier = _STATE.barrier
    if barrier is not None:
        try:
            barrier.wait(timeout=30.0)
        except Exception:  # broken barrier: distribution was uneven;
            pass  # the miss-resubmit safety net covers any gap.
    return len(blobs)


# -- the persistent pool --------------------------------------------------


@dataclass
class _PoolState:
    executor: Optional[ProcessPoolExecutor] = None
    workers: int = 0
    method: str = ""
    #: Digests every live worker is known to hold.
    seeded: set = field(default_factory=set)
    #: Reusable rendezvous barrier (fork contexts only).
    barrier: Any = None
    constructions: int = 0


_STATE = _PoolState()


def _context_method() -> str:
    """The start method to use: env override, else fork when available."""
    forced = os.environ.get(MP_CONTEXT_ENV_VAR, "").strip()
    if forced:
        if forced not in multiprocessing.get_all_start_methods():
            raise ExperimentError(
                f"{MP_CONTEXT_ENV_VAR}={forced!r} is not a supported start "
                f"method; pick from {multiprocessing.get_all_start_methods()}"
            )
        return forced
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def pool_constructions() -> int:
    """How many ProcessPoolExecutors this process has created."""
    return _STATE.constructions


def shutdown_pool() -> None:
    """Tear the persistent pool down (tests; atexit)."""
    if _STATE.executor is not None:
        _STATE.executor.shutdown(wait=True, cancel_futures=True)
    _STATE.executor = None
    _STATE.workers = 0
    _STATE.method = ""
    _STATE.seeded = set()
    _STATE.barrier = None


def reset_pool_state_for_tests() -> None:
    """Shut the pool down and zero the construction counter."""
    shutdown_pool()
    _STATE.constructions = 0


atexit.register(shutdown_pool)


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, created once per process.

    An existing pool is reused whenever it is at least ``workers`` wide
    and was built with the current start method; it only grows, so a
    profiling phase followed by a wider grid phase still pays startup
    once (the profiling call already asks for the full width via
    :func:`resolve_profile_workers`).
    """
    workers = max(2, int(workers))
    method = _context_method()
    if (
        _STATE.executor is not None
        and _STATE.method == method
        and _STATE.workers >= workers
    ):
        return _STATE.executor
    shutdown_pool()
    ctx = multiprocessing.get_context(method)
    # The rendezvous barrier must exist before the workers so fork
    # children inherit it; spawn contexts cannot inherit synchronisation
    # primitives and fall back to envelope-attached payloads.
    barrier = ctx.Barrier(workers) if method == "fork" else None
    snapshot = dict(_PARENT_BLOBS)
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=ctx,
        initializer=_worker_init,
        initargs=(snapshot,),
    )
    _STATE.executor = executor
    _STATE.workers = workers
    _STATE.method = method
    _STATE.seeded = set(snapshot)
    _STATE.barrier = barrier
    _STATE.constructions += 1
    return executor


# -- envelopes ------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """One shipped unit of work: a task function plus its payload.

    ``fn`` must be a module-level callable (picklable by reference).
    ``refs`` declares every :class:`BroadcastRef` the task resolves, so
    the pool can seed workers before the batch runs. ``blobs`` carries
    inline payloads on the resubmission path only. ``task_key`` is a
    content hash of (fn, args) stamped by :func:`run_envelopes`;
    ``attempt`` counts resubmissions of this task; ``chaos`` is the
    installed :class:`~repro.faults.executor.ExecutorFaultPlan` (or
    None), consulted worker-side before the task runs.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...]
    refs: Tuple[BroadcastRef, ...] = ()
    blobs: Optional[Tuple[Tuple[str, bytes], ...]] = None
    task_key: str = ""
    attempt: int = 0
    chaos: Any = None


def envelope_task_key(env: Envelope) -> str:
    """Content-address one task: hash of (module, qualname, args).

    Stable across runs, workers and submission order, so a fault plan
    keyed on it sabotages the same tasks every time.
    """
    payload = pickle.dumps(
        (env.fn.__module__, env.fn.__qualname__, env.args),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return hashlib.sha256(payload).hexdigest()


def shard_task_key(tag: str, ref: BroadcastRef, coords: Any) -> str:
    """A content-stable task key for one shard of a broadcast fan-out.

    Derived from the broadcast payload's digest plus the shard's
    coordinate tuple (e.g. its zone spans) rather than its positional
    shard index, so a shard keeps the same key whenever it covers the
    same slice of the same payload — no matter how many other shards
    run alongside it. Incremental fleet runs re-shard around cached
    zones; with coordinate-derived keys, chaos fault plans (which
    target task keys) still land on the same work.
    """
    blob = repr(coords).encode("utf-8")
    return f"{tag}:{ref.digest[:12]}:{hashlib.sha256(blob).hexdigest()[:16]}"


def _run_envelope(env: Envelope) -> Tuple[str, Any]:
    """Worker-side envelope execution: absorb, sabotage?, resolve, run."""
    if env.blobs:
        _absorb_blobs(dict(env.blobs))
    if env.chaos is not None:
        action = env.chaos.action_for(env.task_key, env.attempt)
        if action == "kill":
            os._exit(17)  # hard worker death: breaks the whole pool
        if action == "crash":
            raise InjectedWorkerFault(
                f"injected worker crash (task {env.task_key[:12]})"
            )
        if action == "hang":
            # A wedged worker: sleep through the deadline, then behave.
            time.sleep(env.chaos.hang_s)
    try:
        return ("ok", env.fn(*env.args))
    except BroadcastMissError as miss:
        return ("miss", miss.digests)


def _seed_workers(pool: ProcessPoolExecutor, digests: Iterable[str]) -> None:
    """Push not-yet-seeded payloads to every worker (fork contexts).

    Submits one barrier-synchronised absorb task per worker; the barrier
    guarantees no worker takes two, so after the round every worker
    holds the payloads. On spawn contexts (no inheritable barrier) this
    is a no-op and payloads ride along with the envelopes instead.
    """
    missing = [d for d in digests if d not in _STATE.seeded]
    if not missing:
        return
    if _STATE.barrier is None:
        return
    blobs = {d: _PARENT_BLOBS[d] for d in missing if d in _PARENT_BLOBS}
    if not blobs:
        return
    futures = [
        pool.submit(_absorb_task, blobs) for _ in range(_STATE.workers)
    ]
    for future in futures:
        future.result()
    _STATE.seeded.update(blobs)


def _attach_blobs(env: Envelope, digests: Iterable[str]) -> Envelope:
    """A copy of ``env`` carrying payloads for ``digests`` inline."""
    blobs = tuple(
        (d, _PARENT_BLOBS[d]) for d in sorted(set(digests)) if d in _PARENT_BLOBS
    )
    return replace(env, blobs=blobs)


def _force_pool_rebuild() -> None:
    """Kill the executor's processes and discard it (hung/broken pool).

    ``ProcessPoolExecutor`` cannot cancel a *running* task, so the only
    way to reclaim a worker stuck past its deadline is to terminate the
    processes and rebuild. The next :func:`get_pool` call starts fresh;
    its initializer snapshot re-seeds every broadcast payload, so no
    seeding state is lost.
    """
    executor = _STATE.executor
    if executor is not None:
        processes = getattr(executor, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
    _STATE.executor = None
    _STATE.workers = 0
    _STATE.method = ""
    _STATE.seeded = set()
    _STATE.barrier = None
    _POOL_STATS.pool_rebuilds += 1


def run_envelopes(
    envelopes: Sequence[Envelope],
    workers: int,
    chunksize: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
) -> List[Any]:
    """Run envelopes, results in input order, surviving worker failures.

    ``workers <= 1`` (or a single envelope) runs inline in this process
    — bit-identical to the pooled path since every task function is a
    pure function of its (broadcast-resolved) arguments; the inline path
    also ignores any installed fault plan, making it the fault-free
    reference run.

    The pooled path submits each envelope individually under a deadline
    (:func:`resolve_task_timeout`). A failed attempt — worker exception,
    pool break, deadline expiry — is re-queued up to ``max_retries``
    times with every referenced payload attached inline; past that the
    task runs in the parent (``inline_fallbacks``), where a genuine bug
    raises its real traceback. Retried attempts carry ``attempt > 0``,
    which disarms any installed fault plan, so chaos runs converge.

    ``chunksize`` is accepted for backward compatibility and ignored
    (per-task submission replaced batched ``pool.map``).
    """
    del chunksize  # retained in the signature for old call sites
    envelopes = list(envelopes)
    if not envelopes:
        return []
    n_workers = min(int(workers), len(envelopes))
    if n_workers <= 1:
        return [env.fn(*env.args) for env in envelopes]
    limit = resolve_task_timeout(timeout)
    stats = _POOL_STATS
    plan = _FAULT_PLAN
    base = [
        replace(env, task_key=env.task_key or envelope_task_key(env), chaos=plan)
        for env in envelopes
    ]
    pool = get_pool(n_workers)
    referenced = {ref.digest for env in base for ref in env.refs}
    _seed_workers(pool, referenced)
    unseeded = referenced - _STATE.seeded
    if unseeded:
        # Spawn context (or a broken seeding round): payloads travel with
        # the envelopes that need them.
        base = [
            _attach_blobs(env, [r.digest for r in env.refs if r.digest in unseeded])
            if any(r.digest in unseeded for r in env.refs)
            else env
            for env in base
        ]

    n = len(base)
    results: List[Any] = [None] * n
    attempts = [0] * n
    missed = [False] * n
    needs_blobs = [False] * n
    pending: deque = deque(range(n))
    in_flight: Dict[Any, int] = {}
    deadlines: Dict[Any, float] = {}

    def ship(i: int) -> Envelope:
        env = base[i]
        if attempts[i] > 0 or needs_blobs[i]:
            env = _attach_blobs(env, [r.digest for r in env.refs])
        if attempts[i] > 0:
            env = replace(env, attempt=attempts[i])
        return env

    def record_failure(i: int) -> None:
        attempts[i] += 1
        if attempts[i] > max_retries:
            # Last resort: run in the parent. Injected faults never fire
            # here; a genuinely broken task raises its real error.
            stats.inline_fallbacks += 1
            results[i] = base[i].fn(*base[i].args)
        else:
            stats.retries += 1
            pending.append(i)

    def handle_broken_pool() -> None:
        nonlocal pool
        for fut, j in list(in_flight.items()):
            stats.worker_crashes += 1
            record_failure(j)
        in_flight.clear()
        deadlines.clear()
        _force_pool_rebuild()
        pool = get_pool(n_workers)

    while pending or in_flight:
        while pending:
            i = pending[0]
            try:
                fut = pool.submit(_run_envelope, ship(i))
            except BrokenExecutor:
                handle_broken_pool()  # i stays queued; retry on fresh pool
                continue
            pending.popleft()
            stats.submitted += 1
            in_flight[fut] = i
            if limit is not None:
                deadlines[fut] = time.monotonic() + limit
        if not in_flight:
            continue
        wait_timeout = None
        if deadlines:
            wait_timeout = max(0.0, min(deadlines.values()) - time.monotonic())
        done, _ = _wait_futures(
            set(in_flight), timeout=wait_timeout, return_when=FIRST_COMPLETED
        )
        if not done:
            now = time.monotonic()
            expired = [f for f, dl in deadlines.items() if dl <= now]
            if not expired:
                continue
            # A worker blew its deadline. Running tasks cannot be
            # cancelled, so tear the pool down; every in-flight task
            # (expired and collateral alike) is retried on a fresh pool.
            stats.timeouts += len(expired)
            for fut, j in list(in_flight.items()):
                record_failure(j)
            in_flight.clear()
            deadlines.clear()
            _force_pool_rebuild()
            pool = get_pool(n_workers)
            continue
        broken = False
        for fut in done:
            i = in_flight.pop(fut)
            deadlines.pop(fut, None)
            try:
                status, value = fut.result()
            except BrokenExecutor:
                stats.worker_crashes += 1
                record_failure(i)
                broken = True
                continue
            except Exception:
                stats.task_failures += 1
                record_failure(i)
                continue
            if status == "ok":
                stats.completed += 1
                results[i] = value
            else:
                stats.broadcast_misses += 1
                if missed[i]:
                    raise ExperimentError(
                        f"worker could not resolve broadcast payloads "
                        f"{value!r} even with inline blobs attached"
                    )
                missed[i] = True
                needs_blobs[i] = True
                pending.append(i)
        if broken:
            handle_broken_pool()
    if unseeded:
        # The batch delivered the payloads; later batches can drop them.
        _STATE.seeded.update(d for d in unseeded if d in _PARENT_BLOBS)
    return results
