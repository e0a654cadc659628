"""Content-addressed result caching.

The grid engine memoizes two kinds of artifacts on disk:

1. per-service profiling artifacts
   (:class:`~repro.parallel.artifact.RhythmArtifact`), and
2. individual grid-cell comparison results,

both keyed by :func:`~repro.cache.keys.stable_hash` over the fully
resolved inputs plus a code-version salt. Warm re-runs of an unchanged
grid then skip every cell; changing *anything* that affects a result —
a spec field, a config knob, the salt — changes the key and forces a
recompute. See :mod:`repro.cache.keys` and :mod:`repro.cache.store`.
"""

from repro.cache.keys import CODE_VERSION_SALT, stable_hash
from repro.cache.store import (
    CACHE_DIR_ENV_VAR,
    CACHE_MAX_BYTES_ENV_VAR,
    CACHE_TOGGLE_ENV_VAR,
    CacheOutcomes,
    CacheStats,
    CacheStore,
    cache_enabled,
    default_store,
    resolve_cache_dir,
)

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_MAX_BYTES_ENV_VAR",
    "CACHE_TOGGLE_ENV_VAR",
    "CODE_VERSION_SALT",
    "CacheOutcomes",
    "CacheStats",
    "CacheStore",
    "cache_enabled",
    "default_store",
    "resolve_cache_dir",
    "stable_hash",
]
