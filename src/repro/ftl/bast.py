"""BAST baseline (Kim et al. 2002) — block-associative log blocks.

The original "log block scheme" that FAST generalises: each logical
block owns at most **one** dedicated log block; updates to an lbn
append to its own log.  When a write needs a log block and the pool is
exhausted, the least-recently-used association is merged back (switch
merge when the log is perfectly sequential, otherwise a full gather
merge).

BAST's weakness — the reason FAST exists — is *log block thrashing*:
random writes spread over many logical blocks each claim a whole log
block, exhausting the pool after a handful of updates per block and
forcing merges with mostly-empty logs (Section II.A's motivation).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import Ftl
from repro.ftl.logblock import LogBlockMixin, MapJournal


@dataclass
class BastStats:
    switch_merges: int = 0
    full_merges: int = 0
    log_allocations: int = 0


class BastFtl(LogBlockMixin, Ftl):
    """Block-associative sector translation FTL."""

    name = "bast"

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        num_log_blocks: Optional[int] = None,
        gc_threshold: int = 3,
        debug_checks: bool = False,
    ):
        super().__init__(geometry, timing, gc_threshold=gc_threshold, debug_checks=debug_checks)
        ppb = geometry.pages_per_block
        self.pages_per_block = ppb
        self.num_lbns = geometry.num_lpns // ppb
        self.num_planes = geometry.num_planes
        self.data_block = np.full(self.num_lbns, -1, dtype=np.int64)
        self.map_journal = MapJournal(self.array, self.clock)
        if num_log_blocks is None:
            total_extra = geometry.num_planes * geometry.extra_blocks_per_plane
            # On a full device every data block is mapped, so the extra
            # blocks hold the log pool, the journal's ring and the fresh
            # block a full merge gathers into before it frees two.
            margin = max(self.map_journal.ring_blocks + 1, geometry.num_planes // 2)
            num_log_blocks = max(1, total_extra - margin)
        if num_log_blocks < 1:
            raise ValueError("BAST needs at least 1 log block")
        self.num_log_blocks = num_log_blocks
        # lbn -> log block, ordered LRU -> MRU (association recency).
        self.log_of_lbn: OrderedDict[int, int] = OrderedDict()
        self._log_plane_rr = 0
        self.bast_stats = BastStats()

    # ---- host interface ---------------------------------------------------

    def read_page(self, lpn: int, start: float) -> float:
        if not 0 <= lpn < len(self.page_table):
            self.check_lpn(lpn)  # raises
        self.stats.host_reads += 1
        ppn = self.current_ppn(lpn)
        if ppn == -1:
            self.stats.unmapped_reads += 1
            return start
        t = self.clock.read_page(self.codec.ppn_to_plane(ppn), start)
        if self.debug_checks:
            self.verify_integrity()
        return t

    def write_page(self, lpn: int, start: float) -> float:
        if not 0 <= lpn < len(self.page_table):
            self.check_lpn(lpn)  # raises
        self.stats.host_writes += 1
        lbn = lpn // self.pages_per_block
        t = start
        block = self.log_of_lbn.get(lbn)
        if block is not None and self.array.block_free_pages(block) == 0:
            # dedicated log full: merge it back, then open a fresh one
            t = self._merge_association(lbn, t)
            block = None
        if block is None:
            block, t = self._claim_log_block(lbn, t)
        else:
            self.log_of_lbn.move_to_end(lbn)  # refresh recency
        t = self._append_log(block, lpn, t)
        if self.debug_checks:
            self.verify_integrity()
        return t

    # ---- log management --------------------------------------------------------

    def _claim_log_block(self, lbn: int, now: float) -> tuple:
        t = now
        while len(self.log_of_lbn) >= self.num_log_blocks:
            victim_lbn = next(iter(self.log_of_lbn))  # LRU association
            t = self._merge_association(victim_lbn, t)
        block = self._alloc_block(self._log_plane_rr % self.num_planes)
        self._log_plane_rr += 1
        self.log_of_lbn[lbn] = block
        self.bast_stats.log_allocations += 1
        return block, t

    def _merge_association(self, lbn: int, now: float) -> float:
        """Fold an lbn's log block back into its data block."""
        block = self.log_of_lbn.pop(lbn)
        t = now
        if self._log_is_switchable(block, lbn):
            t = self._switch_merge(block, lbn, t)
            t = self.map_journal.record_update(t)
            self.bast_stats.switch_merges += 1
            return t
        t = self._gather_merge_lbn(lbn, t)
        t = self.map_journal.record_update(t)
        # the gather invalidated every page the log still held
        if self.array.block_valid[block] != 0:
            raise AssertionError(f"BAST merge left valid pages in log {block}")
        t = self._erase_data_block(block, t)
        self.bast_stats.full_merges += 1
        return t

    # ---- introspection -------------------------------------------------------------

    def log_blocks_in_use(self) -> int:
        return len(self.log_of_lbn)

    def log_block_summary(self) -> dict:
        summary = super().log_block_summary()
        summary["associations"] = len(self.log_of_lbn)
        summary["switch_merges"] = self.bast_stats.switch_merges
        summary["full_merges"] = self.bast_stats.full_merges
        return summary
