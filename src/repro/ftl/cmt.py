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
    """Segmented-LRU cache of mapping entries, keyed by LPN.

    Holds the state only: ``TranslationManager.charge_lookup`` /
    ``charge_update`` apply the protocol above to the two segments
    directly, because they run once or twice per host page and a method
    call per step is most of that cost.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("CMT capacity must be >= 1")
        self.capacity = capacity
        # The protected segment holds at most half the entries.
        self.protected_capacity = capacity // 2
        # The two segments, ordered LRU -> MRU; value = dirty flag.
        self.probation: OrderedDict[int, bool] = OrderedDict()
        self.protected: OrderedDict[int, bool] = OrderedDict()
        self.stats = CmtStats()

    def __len__(self) -> int:
        return len(self.probation) + len(self.protected)

    def __contains__(self, lpn: int) -> bool:
        return lpn in self.probation or lpn in self.protected

    def mark_dirty(self, lpn: int) -> None:
        """Flag a cached entry as updated since load."""
        if lpn in self.protected:
            self.protected[lpn] = True
        elif lpn in self.probation:
            self.probation[lpn] = True
        else:
            raise KeyError(f"lpn {lpn} not cached")
