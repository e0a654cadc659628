"""Parallel execution: profile and fan out through one persistent pool.

- :mod:`repro.parallel.artifact` — frozen, picklable
  :class:`~repro.parallel.artifact.RhythmArtifact` profiling artifacts,
- :mod:`repro.parallel.pool` — the process-wide persistent worker pool
  with digest-addressed broadcast of frozen inputs,
- :mod:`repro.parallel.profile` — the parallel profiling pipeline
  (per-load-point sweep tasks, per-Servpod Algorithm-1 walks,
  sub-profile caching),
- :mod:`repro.parallel.grid` — the grid engine with deterministic
  per-cell seeding and result fingerprints, sharing the pool above.
"""

from repro.parallel.artifact import RhythmArtifact, artifact_for
from repro.parallel.grid import (
    GridCell,
    cell_cache_key,
    colocation_fingerprint,
    comparison_fingerprint,
    derive_cell_seed,
    run_comparison_grid,
)
from repro.parallel.pool import (
    MP_CONTEXT_ENV_VAR,
    PROFILE_WORKERS_ENV_VAR,
    WORKERS_ENV_VAR,
    BroadcastRef,
    Envelope,
    broadcast,
    get_pool,
    pool_constructions,
    reset_pool_state_for_tests,
    resolve_profile_workers,
    resolve_ref,
    resolve_workers,
    run_envelopes,
    shutdown_pool,
)
from repro.parallel.profile import (
    ProfileStats,
    artifact_cache_key,
    clear_profile_memo,
    load_point_cache_key,
    profile_service_parallel,
    profile_services_parallel,
    slacklimit_cache_key,
)

__all__ = [
    "MP_CONTEXT_ENV_VAR",
    "PROFILE_WORKERS_ENV_VAR",
    "WORKERS_ENV_VAR",
    "BroadcastRef",
    "Envelope",
    "GridCell",
    "ProfileStats",
    "RhythmArtifact",
    "artifact_cache_key",
    "artifact_for",
    "broadcast",
    "cell_cache_key",
    "clear_profile_memo",
    "colocation_fingerprint",
    "comparison_fingerprint",
    "derive_cell_seed",
    "get_pool",
    "load_point_cache_key",
    "pool_constructions",
    "profile_service_parallel",
    "profile_services_parallel",
    "reset_pool_state_for_tests",
    "resolve_profile_workers",
    "resolve_ref",
    "resolve_workers",
    "run_comparison_grid",
    "run_envelopes",
    "shutdown_pool",
    "slacklimit_cache_key",
]
