"""A content-addressed, disk-backed result store.

Entries live under a cache directory (``RHYTHM_CACHE_DIR``, defaulting
to ``~/.cache/rhythm-repro``) as ``<key[:2]>/<key>.pkl`` — the key *is*
the address, so concurrent writers of the same computation write the
same bytes and last-write-wins is harmless. The store is deliberately
paranoid:

- **atomic writes** — payloads land in a temp file first and are
  ``os.replace``d into place, so readers never observe a torn entry;
- **versioned envelopes** — every file wraps its payload in a
  ``{format, key, payload}`` envelope; a format bump orphans old
  entries instead of mis-deserialising them;
- **corruption tolerance** — any failure to read, unpickle or validate
  an entry counts as a miss (and deletes the bad file); the cache can
  only ever cost a recompute, never crash a run;
- **LRU size cap** — reads refresh an entry's mtime; when the store
  grows past ``max_bytes`` (``RHYTHM_CACHE_MAX_BYTES``), the
  least-recently-used entries are evicted first.

``RHYTHM_CACHE=off`` (or ``0``/``false``/``no``) disables the default
store entirely — :func:`default_store` returns ``None`` and every caller
falls back to plain recomputation.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.errors import CacheError

#: Environment variable naming the cache directory.
CACHE_DIR_ENV_VAR = "RHYTHM_CACHE_DIR"
#: Environment variable disabling the cache (``off``/``0``/``false``/``no``).
CACHE_TOGGLE_ENV_VAR = "RHYTHM_CACHE"
#: Environment variable overriding the LRU size cap (bytes).
CACHE_MAX_BYTES_ENV_VAR = "RHYTHM_CACHE_MAX_BYTES"

#: Default size cap: 512 MiB.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: On-disk envelope format; bump to orphan every existing entry.
ENVELOPE_FORMAT = 1

_DISABLED_VALUES = {"off", "0", "false", "no"}


def cache_enabled() -> bool:
    """Whether the environment allows the default cache."""
    value = os.environ.get(CACHE_TOGGLE_ENV_VAR, "").strip().lower()
    return value not in _DISABLED_VALUES


def resolve_cache_dir() -> Path:
    """The cache directory: ``RHYTHM_CACHE_DIR`` or the XDG-ish default."""
    env = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "rhythm-repro"


def resolve_max_bytes() -> int:
    """The LRU size cap from the environment (default 512 MiB)."""
    env = os.environ.get(CACHE_MAX_BYTES_ENV_VAR, "").strip()
    if not env:
        return DEFAULT_MAX_BYTES
    try:
        value = int(env)
    except ValueError:
        raise CacheError(
            f"{CACHE_MAX_BYTES_ENV_VAR} must be an integer, got {env!r}"
        ) from None
    if value <= 0:
        raise CacheError(
            f"{CACHE_MAX_BYTES_ENV_VAR} must be positive, got {value}"
        )
    return value


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time summary of one store (plus its session counters)."""

    directory: str
    entries: int
    total_bytes: int
    max_bytes: int
    hits: int
    misses: int
    stores: int
    evictions: int
    errors: int


@dataclass
class CacheOutcomes:
    """How one cached run's units of work fared against the store.

    A unit is whatever the caller caches whole: a grid cell, a fleet
    zone, a bake-off (scenario, member) cell. ``hits`` were served from
    the store without simulating, ``misses`` were simulated and stored,
    ``skipped`` were simulated but not cached (no store, or an
    uncacheable key).
    """

    hits: int = 0
    misses: int = 0
    skipped: int = 0

    @property
    def total(self) -> int:
        """Every unit the run covered."""
        return self.hits + self.misses + self.skipped

    @property
    def simulated(self) -> int:
        """Units that actually ran (everything but hits)."""
        return self.misses + self.skipped

    def merge(self, other: "CacheOutcomes") -> None:
        """Accumulate another run's counts into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.skipped += other.skipped


class CacheStore:
    """Content-addressed pickle store with atomic writes and LRU eviction."""

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.directory = (
            Path(directory) if directory is not None else resolve_cache_dir()
        )
        self.max_bytes = int(max_bytes) if max_bytes is not None else resolve_max_bytes()
        if self.max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive, got {self.max_bytes}")
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.errors = 0

    # -- paths -----------------------------------------------------------

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise CacheError(f"malformed cache key {key!r}")
        return self.directory / key[:2] / f"{key}.pkl"

    def _entries(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return [p for p in self.directory.glob("??/*.pkl") if p.is_file()]

    # -- read / write ----------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The payload stored under ``key``, or ``None`` on a miss.

        A hit refreshes the entry's LRU clock. *Any* failure — unreadable
        file, truncated pickle, foreign envelope format, key mismatch —
        deletes the offending entry and reports a miss.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
            if (
                not isinstance(envelope, dict)
                or envelope.get("format") != ENVELOPE_FORMAT
                or envelope.get("key") != key
                or "payload" not in envelope
            ):
                raise CacheError(f"bad envelope in {path}")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupted or foreign entry: drop it and recompute.
            self.errors += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        self.hits += 1
        return envelope["payload"]

    def put(self, key: str, payload: Any) -> bool:
        """Store ``payload`` under ``key`` atomically; ``False`` on failure.

        Failures (unpicklable payload, full disk) are swallowed: caching
        is an optimisation, never a correctness dependency.
        """
        path = self._path(key)
        envelope = {"format": ENVELOPE_FORMAT, "key": key, "payload": payload}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except Exception:
            self.errors += 1
            return False
        self.stores += 1
        self._evict_lru()
        return True

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (no validation)."""
        return self._path(key).is_file()

    # -- maintenance -----------------------------------------------------

    def _evict_lru(self) -> int:
        """Evict least-recently-used entries until under ``max_bytes``."""
        sized: List[Tuple[float, int, Path]] = []
        total = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            sized.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return 0
        evicted = 0
        for _, size, path in sorted(sized):
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> CacheStats:
        """Entry count and byte totals plus this store's session counters."""
        entries = self._entries()
        total = 0
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheStats(
            directory=str(self.directory),
            entries=len(entries),
            total_bytes=total,
            max_bytes=self.max_bytes,
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            evictions=self.evictions,
            errors=self.errors,
        )

    def __repr__(self) -> str:
        return f"CacheStore({str(self.directory)!r}, max_bytes={self.max_bytes})"


def default_store() -> Optional[CacheStore]:
    """The environment-configured store, or ``None`` when disabled."""
    if not cache_enabled():
        return None
    return CacheStore()
