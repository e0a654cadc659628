"""Intel CAT-style last-level-cache way partitioning.

The paper partitions the LLC into an LC part and a BE part with Intel CAT.
We model the cache as ``n_ways`` equal ways; each owner holds an integral
number of ways. The BE subcontroller grows/shrinks the BE partition in
steps of 10% of the cache (paper §3.5.2), i.e. ``ways_per_step =
round(0.1 * n_ways)``.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import AllocationError, ReleaseError


class LastLevelCache:
    """A way-partitioned LLC.

    Parameters
    ----------
    size_mb:
        Total LLC capacity in MiB.
    n_ways:
        Number of ways (partitioning granularity). 20 matches the paper's
        Xeon E7-4820 v4 (20 MB L3, so one way == 1 MB).
    """

    def __init__(self, size_mb: float = 20.0, n_ways: int = 20) -> None:
        if size_mb <= 0 or n_ways <= 0:
            raise AllocationError(
                f"LLC needs positive size and ways, got {size_mb=} {n_ways=}"
            )
        self.size_mb = float(size_mb)
        self.n_ways = int(n_ways)
        self._owned: Dict[str, int] = {}
        # Sum of ``_owned``, kept in step by every mutation.
        self._held = 0

    @property
    def mb_per_way(self) -> float:
        """Capacity of a single way in MiB."""
        return self.size_mb / self.n_ways

    @property
    def free_ways(self) -> int:
        """Ways not assigned to any owner."""
        return self.n_ways - self._held

    def ways_of(self, owner: str) -> int:
        """Ways currently held by ``owner`` (0 if unknown)."""
        return self._owned.get(owner, 0)

    def mb_of(self, owner: str) -> float:
        """Capacity in MiB currently held by ``owner``."""
        return self.ways_of(owner) * self.mb_per_way

    def fraction_of(self, owner: str) -> float:
        """Fraction of the whole cache held by ``owner``."""
        return self.ways_of(owner) / self.n_ways

    def allocate(self, owner: str, ways: int) -> int:
        """Give ``ways`` more ways to ``owner``; returns new total held."""
        if ways < 0:
            raise AllocationError(f"cannot allocate {ways} ways")
        if ways > self.free_ways:
            raise AllocationError(
                f"LLC exhausted: {owner!r} wants {ways} ways, {self.free_ways} free"
            )
        self._owned[owner] = self._owned.get(owner, 0) + ways
        self._held += ways
        return self._owned[owner]

    def release(self, owner: str, ways: int) -> int:
        """Take ``ways`` ways back from ``owner``; returns remaining held."""
        held = self._owned.get(owner, 0)
        if ways < 0 or ways > held:
            raise ReleaseError(f"{owner!r} holds {held} ways, cannot release {ways}")
        remaining = held - ways
        self._held -= ways
        if remaining:
            self._owned[owner] = remaining
        else:
            self._owned.pop(owner, None)
        return remaining

    def release_all(self, owner: str) -> int:
        """Return all of ``owner``'s ways to the free pool; returns count."""
        ways = self._owned.pop(owner, 0)
        self._held -= ways
        return ways

    def step_ways(self, fraction: float = 0.10) -> int:
        """Ways corresponding to one adjustment step (default 10% of LLC)."""
        return max(1, round(fraction * self.n_ways))
