"""Cached Mapping Table with segmented LRU replacement.

The paper's algorithm (Fig. 6) caches the most popular logical-to-
physical mappings in SRAM and evicts with *segmented LRU*: entries
enter a probationary segment; a hit promotes to a protected segment;
protected overflow demotes back to the probationary MRU end; eviction
takes the probationary LRU end.  Dirty entries (updated since load)
must be written back to their translation page on eviction.

The CMT caches *presence* and *dirtiness* — the simulator keeps the
authoritative page table in memory and uses the CMT purely to charge
the flash traffic a real SRAM-limited controller would incur, exactly
as FlashSim's DFTL implementation does.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass
class CmtStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedMappingTable:
    """Segmented-LRU cache of mapping entries, keyed by LPN."""

    def __init__(self, capacity: int, protected_fraction: float = 0.5):
        if capacity < 1:
            raise ValueError("CMT capacity must be >= 1")
        if not 0.0 <= protected_fraction < 1.0:
            raise ValueError("protected_fraction must be in [0, 1)")
        self.capacity = capacity
        self.protected_capacity = int(capacity * protected_fraction)
        # The two segments, ordered LRU -> MRU; value = dirty flag.
        # Public: TranslationManager applies the protocol of the methods
        # below to them directly, because it runs once or twice per host
        # page and a method call per step is most of that cost.
        self.probation: OrderedDict[int, bool] = OrderedDict()
        self.protected: OrderedDict[int, bool] = OrderedDict()
        self.stats = CmtStats()

    def __len__(self) -> int:
        return len(self.probation) + len(self.protected)

    def __contains__(self, lpn: int) -> bool:
        return lpn in self.probation or lpn in self.protected

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity

    def _demote_protected_overflow(self) -> None:
        while len(self.protected) > self.protected_capacity:
            lpn, dirty = self.protected.popitem(last=False)
            self.probation[lpn] = dirty  # re-enter at probationary MRU

    def touch(self, lpn: int) -> bool:
        """Record an access.  Returns True on hit (and promotes the entry)."""
        if lpn in self.protected:
            self.protected.move_to_end(lpn)
            self.stats.hits += 1
            return True
        if lpn in self.probation:
            dirty = self.probation.pop(lpn)
            self.protected[lpn] = dirty
            self._demote_protected_overflow()
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, lpn: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert a missing entry; returns ``(victim_lpn, was_dirty)`` if one was evicted.

        The caller must have established the entry is absent (via
        :meth:`touch` returning False).
        """
        if lpn in self:
            raise KeyError(f"lpn {lpn} already cached")
        victim = None
        if self.is_full:
            victim = self.evict()
        self.probation[lpn] = dirty
        return victim

    def evict(self) -> Tuple[int, bool]:
        """Evict the segmented-LRU victim; returns ``(lpn, was_dirty)``."""
        if self.probation:
            lpn, dirty = self.probation.popitem(last=False)
        elif self.protected:
            lpn, dirty = self.protected.popitem(last=False)
        else:
            raise RuntimeError("evict from empty CMT")
        self.stats.evictions += 1
        if dirty:
            self.stats.dirty_evictions += 1
        return lpn, dirty

    def mark_dirty(self, lpn: int) -> None:
        """Flag a cached entry as updated since load."""
        if lpn in self.protected:
            self.protected[lpn] = True
        elif lpn in self.probation:
            self.probation[lpn] = True
        else:
            raise KeyError(f"lpn {lpn} not cached")

    def mark_clean(self, lpn: int) -> None:
        """Clear the dirty flag (after its translation page was rewritten)."""
        if lpn in self.protected:
            self.protected[lpn] = False
        elif lpn in self.probation:
            self.probation[lpn] = False
        else:
            raise KeyError(f"lpn {lpn} not cached")

    def is_dirty(self, lpn: int) -> bool:
        if lpn in self.protected:
            return self.protected[lpn]
        if lpn in self.probation:
            return self.probation[lpn]
        raise KeyError(f"lpn {lpn} not cached")

    def drop(self, lpn: int) -> None:
        """Remove an entry without write-back accounting (used by tests)."""
        if lpn in self.protected:
            del self.protected[lpn]
        elif lpn in self.probation:
            del self.probation[lpn]

    def cached_lpns(self) -> list:
        """All cached LPNs (probationary then protected, LRU->MRU)."""
        return list(self.probation) + list(self.protected)
