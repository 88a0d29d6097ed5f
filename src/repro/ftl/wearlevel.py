"""Static wear leveling.

Section I lists wear leveling among the FTL's duties; DLOOP argues its
striping makes an *external* leveler unnecessary (Section III.C).  This
module provides that external leveler so the claim can be tested: a
threshold-based static scheme that, when the erase-count spread exceeds
``gap_threshold``, migrates the coldest data (block with the fewest
erases, i.e. long-lived valid pages) into a well-worn free block so the
cold block's low-wear cycles become available to hot data.

The leveler works against any :class:`repro.ftl.base.Ftl` through the
same hooks GC's emergency relocation uses (``_gc_alloc_any`` /
``_gc_note_move`` / ``_gc_mapping_updates``), so mappings stay
consistent for every FTL type that implements them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ftl.base import Ftl


@dataclass
class WearLevelStats:
    checks: int = 0
    migrations: int = 0
    moved_pages: int = 0


class StaticWearLeveler:
    """Threshold-triggered cold-data migration.

    Supports the page-mapping FTLs (DLOOP, DFTL, PageMap), whose only
    mapping structure is the page table the relocation hooks maintain.
    Hybrid log-block FTLs pin data to block-aligned positions and would
    be corrupted by page-granular migration, so they are rejected.
    """

    def __init__(self, ftl, gap_threshold: int = 16, check_interval_erases: int = 256):
        if gap_threshold < 1:
            raise ValueError("gap_threshold must be >= 1")
        if check_interval_erases < 1:
            raise ValueError("check_interval_erases must be >= 1")
        if type(ftl)._gc_destinations is Ftl._gc_destinations:
            raise TypeError(
                f"{ftl.name}: FTL does not support page-granular relocation "
                "(hybrid log-block FTLs keep block-aligned data)"
            )
        self.ftl = ftl
        self.gap_threshold = gap_threshold
        self.check_interval = check_interval_erases
        self._last_checked_at = 0
        self.stats = WearLevelStats()

    def maybe_level(self, now: float) -> float:
        """Check the wear spread; migrate one cold block if excessive."""
        array = self.ftl.array
        total = int(array.block_erase_count_np.sum())
        if total - self._last_checked_at < self.check_interval:
            return now
        self._last_checked_at = total
        self.stats.checks += 1
        counts = array.block_erase_count_np
        gap = int(counts.max() - counts.min())
        if gap < self.gap_threshold:
            return now
        return self._migrate_coldest(now)

    def _migrate_coldest(self, now: float) -> float:
        array = self.ftl.array
        counts = array.block_erase_count_np.astype(np.int64, copy=True)
        # only in-use blocks holding valid data are migration candidates
        candidates = ~array.block_free_mask & (array.block_valid_np > 0)
        # never touch active write points
        for plane in range(self.ftl.geometry.num_planes):
            for block in self.ftl._gc_exclude(plane):
                if block is not None:
                    candidates[block] = False
        if not candidates.any():
            return now
        counts[~candidates] = np.iinfo(np.int64).max
        victim = int(np.argmin(counts))
        t = now
        moved: list = []
        for ppn in list(array.valid_pages_in_block(victim)):
            owner = array.owner_of(ppn)
            array.stage_copy_gen(ppn)
            new_ppn = self.ftl._gc_alloc_any(owner)
            t = self.ftl.clock.inter_plane_copy(
                self.ftl.codec.ppn_to_plane(ppn), self.ftl.codec.ppn_to_plane(new_ppn), t
            )
            array.invalidate(ppn)
            self.ftl._gc_note_move(owner, new_ppn, moved)
            self.stats.moved_pages += 1
        t = self.ftl.clock.erase_block(self.ftl.codec.block_to_plane(victim), t)
        array.erase(victim)
        array.release_block(victim)
        t = self.ftl._gc_mapping_updates(moved, t)
        self.stats.migrations += 1
        return t
