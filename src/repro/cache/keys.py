"""Stable, content-addressed cache keys.

A cache key must be a pure function of the *fully resolved* inputs of a
computation — the same cell config must hash to the same key in any
process, on any platform, under any ``PYTHONHASHSEED`` — and it must
change whenever anything that affects the result changes. Keys are
therefore built by feeding a canonical byte encoding of the input object
graph into SHA-256:

- every value is emitted with a one-byte type tag, so ``1`` and ``1.0``
  and ``"1"`` never collide,
- floats are encoded with :meth:`float.hex` (exact, round-trippable),
- dataclasses and plain objects carry their qualified class name plus
  their fields in a deterministic order,
- numpy arrays contribute dtype, shape and raw bytes.

Anything without a canonical encoding (a bare function, an open file)
raises :class:`~repro.errors.CacheKeyError`; every cached unit looks
itself up through :func:`~repro.cache.store.cache_lookup`, which treats
such a unit as uncacheable and recomputes it rather than guessing.

The :data:`CODE_VERSION_SALT` is mixed into every key. Bump it whenever
a change alters what simulations produce for the *same* config (new RNG
consumption order, changed physics, changed result schema): every old
entry then misses and warm runs transparently recompute.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
from operator import itemgetter
from typing import Any, List

import numpy as np

from repro.errors import CacheKeyError

#: Version salt mixed into every key. Bump on result-affecting changes.
#: :2 — profiling RNG restructure: per-load-point stream registries and
#: candidate-derived (repeated) SLA-probe streams changed what the same
#: config simulates, so every :1 entry must miss.
#: :3 — ColocationConfig grew a ``faults`` schedule field (fault
#: injection changes what the same-looking config simulates), so every
#: :2 entry must miss.
#: :4 — batched SoA kernel landing touched result-affecting code paths
#: (engine batch-pop loop, vectorized rate/latency/queueing math); the
#: kernels are pinned bit-identical to each other, but :3 entries
#: predate the identity pin and must miss.
#:
#: The fleet kernel did NOT bump the salt: every fleet-era optimisation
#: (row caching, sampler fast paths, memoized subcontroller applies) is
#: bit-exact by the identity tests, so :4 entries stay valid. The fleet
#: zone governor also never enters keys — it acts through the
#: ``action_filter`` hook, a post-construction runtime attribute
#: (default ``None``) on ColocationExperiment, not a config field.
#: :5 — fleet runs now ARE cached (per-zone ``fleet-zone`` entries, see
#: :func:`repro.experiments.fleet.zone_cache_key`) and the colocation
#: tick path was rewritten (small-fleet python tick, partition-based
#: percentiles, cumsum folds). The rewrite is pinned bit-identical, but
#: :4 entries predate the pin and the store now carries a new entry
#: family, so every :4 entry must miss.
#: :6 — the controller interface extraction rewired the decision path
#: of every cached simulation (TopController now routes through
#: ``ColocationController.decide``) and the store gained the
#: ``bakeoff-cell`` entry family, keyed per controller member (see
#: :func:`repro.experiments.bakeoff.bakeoff_cell_key`). The refactor is
#: pinned bit-identical, but :5 entries predate the bake-off identity
#: pin and must miss.
#: :7 — the fleet kernel (the default path of every batched run) no
#: longer writes pre-kill BE progress back over jobs a last-tick
#: STOP_BE killed, so cells ending on such a kill now report the scalar
#: engine's BE throughput; :6 entries may hold the inflated figure.
#: ColocationConfig also lost its ``tail_estimator`` field.
#: :8 — ``MachineMetrics`` keeps its per-tick series as float64/int64
#: column blocks instead of ``TickSample`` lists, so cached
#: ``ColocationResult``s pickle a different schema, and the cached
#: fleet and bake-off summaries carry digests in the binary
#: :func:`~repro.experiments.colocation.result_digest` format. The
#: simulated values are unchanged; :7 entries must miss because their
#: schema and digests are the old ones.
#: :9 — ``MachineMetrics`` lost its ``tail`` tracker: the ``tail_ms``
#: column is the one record of window tails, so cached
#: ``ColocationResult``s pickle a different schema (:8 entries name the
#: deleted ``WindowedTailTracker`` class and would read back as corrupt).
#: Digests and simulated values are unchanged.
#: ``tests/golden_digests.json`` records digests made under this salt
#: (see ``tests/test_golden_digests.py``).
CODE_VERSION_SALT = "rhythm-repro-cache:9"


def _feed(h: "hashlib._Hash", obj: Any) -> None:
    """Recursively feed the canonical encoding of ``obj`` into ``h``."""
    if obj is None:
        h.update(b"N")
        return
    if isinstance(obj, bool):  # before int: bool is an int subclass
        h.update(b"B1" if obj else b"B0")
        return
    if isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode("ascii") + b";")
        return
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            h.update(b"Fnan;")
        else:
            h.update(b"F" + value.hex().encode("ascii") + b";")
        return
    if isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"S" + str(len(data)).encode("ascii") + b":" + data)
        return
    if isinstance(obj, bytes):
        h.update(b"Y" + str(len(obj)).encode("ascii") + b":" + obj)
        return
    if isinstance(obj, enum.Enum):
        h.update(b"E" + _qualname(obj).encode("utf-8") + b":")
        _feed(h, obj.value)
        return
    if isinstance(obj, np.ndarray):
        h.update(
            b"A" + str(obj.dtype).encode("ascii")
            + str(obj.shape).encode("ascii") + b":"
        )
        h.update(np.ascontiguousarray(obj).tobytes())
        return
    if isinstance(obj, (list, tuple)):
        h.update(b"L" + str(len(obj)).encode("ascii") + b":")
        for item in obj:
            _feed(h, item)
        return
    # Unordered containers feed their members sorted by canonical
    # encoding: unlike ``repr`` (default reprs embed memory addresses)
    # it is the same in every process.
    if isinstance(obj, (set, frozenset)):
        h.update(b"T" + str(len(obj)).encode("ascii") + b":")
        for data in sorted(_encode(item) for item in obj):
            h.update(data)
        return
    if isinstance(obj, dict):
        h.update(b"M" + str(len(obj)).encode("ascii") + b":")
        for data, key in sorted(((_encode(k), k) for k in obj), key=itemgetter(0)):
            h.update(data)
            _feed(h, obj[key])
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"D" + _qualname(obj).encode("utf-8") + b":")
        for field in dataclasses.fields(obj):
            h.update(field.name.encode("utf-8") + b"=")
            _feed(h, getattr(obj, field.name))
        return
    # Plain value objects (load patterns, InterferenceModel, ...): the
    # qualified class name plus every instance attribute, sorted. Bound
    # state that is itself unhashable (a wrapped callable) propagates a
    # CacheKeyError, marking the whole cell uncacheable.
    if hasattr(obj, "__dict__") and not callable(obj):
        attrs = vars(obj)
        h.update(b"O" + _qualname(obj).encode("utf-8") + b":")
        h.update(str(len(attrs)).encode("ascii") + b":")
        for name in sorted(attrs):
            h.update(name.encode("utf-8") + b"=")
            _feed(h, attrs[name])
        return
    raise CacheKeyError(
        f"cannot build a stable cache key from {type(obj).__module__}."
        f"{type(obj).__qualname__} instance {obj!r}"
    )


class _Collector:
    """A ``hashlib``-like sink that keeps the bytes fed to it."""

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: List[bytes] = []

    def update(self, data: bytes) -> None:
        self.parts.append(data)


def _encode(obj: Any) -> bytes:
    """The canonical encoding :func:`_feed` streams for ``obj``."""
    sink = _Collector()
    _feed(sink, obj)
    return b"".join(sink.parts)


def _qualname(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def stable_hash(obj: Any, salt: str = CODE_VERSION_SALT) -> str:
    """The hex SHA-256 of ``obj``'s canonical encoding, mixed with ``salt``.

    Deterministic across processes, platforms and ``PYTHONHASHSEED``
    values. Raises :class:`~repro.errors.CacheKeyError` when ``obj``
    (or anything reachable from it) has no canonical encoding.
    """
    h = hashlib.sha256()
    h.update(b"salt:")
    _feed(h, salt)
    _feed(h, obj)
    return h.hexdigest()
