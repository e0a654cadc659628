"""Content-addressed result caching.

Six kinds of unit are memoized on disk:

1. grid-cell comparison results (:mod:`repro.parallel.grid`),
2. whole per-service profiling artifacts
   (:class:`~repro.parallel.artifact.RhythmArtifact`),
3. profiling sweep load points and
4. per-Servpod Algorithm-1 slacklimit walks
   (both :mod:`repro.parallel.profile`),
5. fleet zones (:mod:`repro.experiments.fleet`), and
6. bake-off (scenario, member) cells (:mod:`repro.experiments.bakeoff`),

each keyed by :func:`~repro.cache.keys.stable_hash` over the fully
resolved inputs plus a code-version salt, and each looked up through
:func:`~repro.cache.store.cache_lookup`, the one place that decides
skip, hit or miss and counts it into
:class:`~repro.cache.store.CacheOutcomes`. Warm re-runs of unchanged
work then skip every simulation; changing *anything* that affects a
result — a spec field, a config knob, the salt — changes the key and
forces a recompute. See :mod:`repro.cache.keys` and
:mod:`repro.cache.store`.
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
    cache_lookup,
    default_store,
    resolve_cache_dir,
    resolve_store,
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
    "cache_lookup",
    "default_store",
    "resolve_cache_dir",
    "resolve_store",
    "stable_hash",
]
