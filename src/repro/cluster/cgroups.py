"""Cgroup-style cpuset accounting.

Models the ``cpuset`` controller the paper uses for core/thread isolation:
LC Servpods and BE jobs are pinned to disjoint sets of physical cores, so
direct core contention between them is eliminated (indirect contention —
LLC, DRAM bandwidth, power — is modeled elsewhere).
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Set

from repro.errors import AllocationError, ReleaseError


class CpuSet:
    """Tracks exclusive assignment of physical core IDs to named owners.

    Parameters
    ----------
    total_cores:
        Number of physical cores on the machine (IDs ``0..total_cores-1``).
    """

    def __init__(self, total_cores: int) -> None:
        if total_cores <= 0:
            raise AllocationError(f"machine must have >= 1 core, got {total_cores}")
        self._total = int(total_cores)
        self._free: Set[int] = set(range(self._total))
        self._owned: Dict[str, Set[int]] = {}

    def __deepcopy__(self, memo) -> "CpuSet":
        # Core ids are ints and owners are strings, so fresh sets of the
        # same members are a deep copy — without the generic walk's one
        # reconstruct per set and one dispatch per core id.
        clone = object.__new__(self.__class__)
        clone._total = self._total
        clone._free = set(self._free)
        clone._owned = {owner: set(cores) for owner, cores in self._owned.items()}
        return clone

    @property
    def total_cores(self) -> int:
        """Total physical cores on the machine."""
        return self._total

    @property
    def free_cores(self) -> int:
        """Number of currently unassigned cores."""
        return len(self._free)

    def owned_by(self, owner: str) -> FrozenSet[int]:
        """The (possibly empty) set of core IDs assigned to ``owner``."""
        return frozenset(self._owned.get(owner, set()))

    def count(self, owner: str) -> int:
        """Number of cores assigned to ``owner``."""
        return len(self._owned.get(owner, set()))

    def allocate(self, owner: str, n: int) -> FrozenSet[int]:
        """Assign ``n`` more cores to ``owner``; returns the new core IDs.

        Cores are handed out lowest-ID-first for determinism
        (``heapq.nsmallest`` finds them without sorting the free set).
        """
        if n < 0:
            raise AllocationError(f"cannot allocate {n} cores")
        if n > len(self._free):
            raise AllocationError(
                f"cpuset exhausted: {owner!r} wants {n} cores, {len(self._free)} free"
            )
        granted = set(heapq.nsmallest(n, self._free))
        self._free -= granted
        self._owned.setdefault(owner, set()).update(granted)
        return frozenset(granted)

    def release(self, owner: str, n: int) -> int:
        """Return ``n`` cores from ``owner`` to the free pool.

        The highest IDs go first. Releasing more than owned raises
        :class:`ReleaseError`.
        """
        owned = self._owned.get(owner, set())
        if n < 0 or n > len(owned):
            raise ReleaseError(
                f"{owner!r} owns {len(owned)} cores, cannot release {n}"
            )
        victims = set(heapq.nlargest(n, owned))
        owned -= victims
        self._free |= victims
        if not owned and owner in self._owned:
            del self._owned[owner]
        return n

    def release_all(self, owner: str) -> int:
        """Return every core owned by ``owner``; returns how many."""
        owned = self._owned.pop(owner, set())
        self._free |= owned
        return len(owned)

    def owners(self) -> FrozenSet[str]:
        """Names that currently own at least one core."""
        return frozenset(self._owned)
