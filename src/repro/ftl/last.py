"""LAST baseline (Lee et al. 2008) — locality-aware sector translation.

LAST refines FAST's log buffer with two ideas the paper's related work
highlights (Section II.A):

* a **sequential partition** of several block-associated sequential log
  blocks (FAST has only one), so multiple streams switch-merge cheaply;
* a **hot/cold-partitioned random buffer**: recently-updated (hot)
  pages are segregated from cold ones, so hot log blocks self-
  invalidate and can be reclaimed with *no* copying, while cold blocks
  accumulate the stable data.

Reclamation of the random partition picks the filled log block with the
fewest valid pages (cheapest merge) — ideally a fully dead hot block,
which costs one erase.  Like FAST, the (SRAM) block tables are
persisted through the plane-0 map journal.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import Ftl
from repro.ftl.logblock import LogBlockMixin, MapJournal


@dataclass
class LastStats:
    switch_merges: int = 0
    partial_merges: int = 0
    full_merges: int = 0
    dead_block_reclaims: int = 0
    hot_writes: int = 0
    cold_writes: int = 0


class LastFtl(LogBlockMixin, Ftl):
    """Locality-aware hybrid log-block FTL."""

    name = "last"

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        num_log_blocks: Optional[int] = None,
        sequential_fraction: float = 0.3,
        hot_window: Optional[int] = None,
        gc_threshold: int = 3,
    ):
        super().__init__(geometry, timing, gc_threshold=gc_threshold)
        ppb = geometry.pages_per_block
        self.pages_per_block = ppb
        self.num_lbns = geometry.num_lpns // ppb
        self.num_planes = geometry.num_planes
        self.data_block = np.full(self.num_lbns, -1, dtype=np.int64)
        if num_log_blocks is None:
            total_extra = geometry.num_planes * geometry.extra_blocks_per_plane
            margin = max(2, geometry.num_planes // 2)
            num_log_blocks = max(4, total_extra - margin)
        if num_log_blocks < 4:
            raise ValueError("LAST needs at least 4 log blocks (2 sequential + hot + cold)")
        if not 0.0 < sequential_fraction < 1.0:
            raise ValueError("sequential_fraction must be in (0, 1)")
        self.num_log_blocks = num_log_blocks
        self.seq_capacity = max(1, int(num_log_blocks * sequential_fraction))
        self.random_capacity = num_log_blocks - self.seq_capacity
        # hotness: an LPN is hot if re-written within this many recent writes
        self.hot_window = hot_window if hot_window is not None else 4 * ppb
        self._recent: OrderedDict[int, None] = OrderedDict()
        # sequential partition: lbn -> log block (LRU -> MRU)
        self.seq_logs: OrderedDict[int, int] = OrderedDict()
        # random partition
        self.hot_block: Optional[int] = None
        self.cold_block: Optional[int] = None
        self.filled_random: List[int] = []
        self._log_plane_rr = 0
        self.map_journal = MapJournal(self.array, self.clock)
        self.last_stats = LastStats()

    # ---- host interface ---------------------------------------------------

    def read_page(self, lpn: int, start: float) -> float:
        if not 0 <= lpn < len(self.page_table):
            self.check_lpn(lpn)  # raises
        self.stats.host_reads += 1
        ppn = self.current_ppn(lpn)
        if ppn == -1:
            self.stats.unmapped_reads += 1
            return start
        return self.clock.read_page(self.codec.ppn_to_plane(ppn), start)

    def write_page(self, lpn: int, start: float) -> float:
        if not 0 <= lpn < len(self.page_table):
            self.check_lpn(lpn)  # raises
        self.stats.host_writes += 1
        lbn, off = divmod(lpn, self.pages_per_block)
        t = start
        seq_block = self.seq_logs.get(lbn)
        if off == 0:
            if seq_block is not None:
                # restart of the stream: retire the old association first
                t = self._close_seq(lbn, t)
            block, t = self._claim_seq_block(lbn, t)
            t = self._append_log(block, lpn, t)
        elif seq_block is not None and int(self.array.block_write_ptr[seq_block]) == off:
            self.seq_logs.move_to_end(lbn)
            t = self._append_log(seq_block, lpn, t)
            if self.array.block_free_pages(seq_block) == 0:
                t = self._close_seq(lbn, t)  # complete stream: switch now
        else:
            t = self._append_random(lpn, t)
        self._note_recent(lpn)
        return t

    # ---- hotness ------------------------------------------------------------------

    def _note_recent(self, lpn: int) -> None:
        self._recent[lpn] = None
        self._recent.move_to_end(lpn)
        while len(self._recent) > self.hot_window:
            self._recent.popitem(last=False)

    def is_hot(self, lpn: int) -> bool:
        """Hot = seen within the recent-write window (temporal locality)."""
        return lpn in self._recent

    # ---- sequential partition -------------------------------------------------------

    def _claim_seq_block(self, lbn: int, now: float) -> tuple:
        t = now
        while len(self.seq_logs) >= self.seq_capacity:
            victim = next(iter(self.seq_logs))
            t = self._close_seq(victim, t)
        block = self._alloc_block(self._log_plane_rr % self.num_planes)
        self._log_plane_rr += 1
        self.seq_logs[lbn] = block
        return block, t

    def _close_seq(self, lbn: int, now: float) -> float:
        """Retire a sequential association: switch or partial merge."""
        block = self.seq_logs.pop(lbn)
        t = now
        if self._log_is_switchable(block, lbn):
            t = self._switch_merge(block, lbn, t)
            self.last_stats.switch_merges += 1
        else:
            filled = int(self.array.block_write_ptr[block])
            t = self._fill_tail(block, lbn, filled, t)
            old_block = int(self.data_block[lbn])
            if old_block != -1 and self.array.block_valid[old_block] != 0:
                # The association was dissolved by a full merge while
                # active: valid copies are split between ``block`` and
                # the rebuilt data block.  Gather everything afresh
                # (erases the registered data block), then drop the log.
                t = self._gather_merge_lbn(lbn, t)
                t = self._erase_data_block(block, t)
            else:
                self.data_block[lbn] = block
                if old_block != -1:
                    t = self._erase_data_block(old_block, t)
            self.last_stats.partial_merges += 1
        t = self.map_journal.record_update(t)
        return t

    # ---- random partition ---------------------------------------------------------

    def _random_blocks_in_use(self) -> int:
        return (
            len(self.filled_random)
            + (1 if self.hot_block is not None else 0)
            + (1 if self.cold_block is not None else 0)
        )

    def _append_random(self, lpn: int, now: float) -> float:
        t = now
        hot = self.is_hot(lpn)
        if hot:
            self.last_stats.hot_writes += 1
        else:
            self.last_stats.cold_writes += 1
        attr = "hot_block" if hot else "cold_block"
        block = getattr(self, attr)
        if block is not None and self.array.block_free_pages(block) == 0:
            self.filled_random.append(block)
            block = None
        if block is None:
            while self._random_blocks_in_use() >= self.random_capacity:
                t = self._reclaim_random(t)
            block = self._alloc_block(self._log_plane_rr % self.num_planes)
            self._log_plane_rr += 1
            setattr(self, attr, block)
        return self._append_log(block, lpn, t)

    def _reclaim_random(self, now: float) -> float:
        """Merge away the cheapest filled random log block."""
        t = now
        if not self.filled_random:
            # nothing filled yet: force out the fuller current block
            candidates = [b for b in (self.hot_block, self.cold_block) if b is not None]
            victim = max(candidates, key=lambda b: int(self.array.block_write_ptr[b]))
            if victim == self.hot_block:
                self.hot_block = None
            else:
                self.cold_block = None
        else:
            victim = min(self.filled_random, key=lambda b: int(self.array.block_valid[b]))
            self.filled_random.remove(victim)
        if self.array.block_valid[victim] == 0:
            # a dead block (all its pages were re-written): free erase
            t = self._erase_data_block(victim, t)
            self.last_stats.dead_block_reclaims += 1
            return t
        lbns = sorted(
            {self.array.owner_of(ppn) // self.pages_per_block
             for ppn in self.array.valid_pages_in_block(victim)}
        )
        for lbn in lbns:
            t = self._gather_merge_lbn(lbn, t)
            t = self.map_journal.record_update(t)
            self.last_stats.full_merges += 1
        if self.array.block_valid[victim] != 0:
            raise AssertionError(f"LAST merge left valid pages in log {victim}")
        t = self._erase_data_block(victim, t)
        return t

    # ---- introspection -------------------------------------------------------------

    def log_blocks_in_use(self) -> int:
        return len(self.seq_logs) + self._random_blocks_in_use()

    def log_block_summary(self) -> Dict:
        summary = super().log_block_summary()
        summary.update(
            sequential_logs=len(self.seq_logs),
            random_logs=self._random_blocks_in_use(),
            dead_reclaims=self.last_stats.dead_block_reclaims,
        )
        return summary
