"""FAST baseline (Lee et al., TECS'07) — hybrid log-block FTL.

Data blocks are block-mapped (one logical block per physical block,
page offset preserved); updates land in a small set of log blocks: one
*sequential-write* (SW) log block capturing streams that start at
offset 0, and *random-write* (RW) log blocks shared fully-associatively
by all logical blocks.  Reclamation uses the three merges of
Section II.A:

* **switch merge** — a complete sequential SW log replaces its data
  block with a single erase;
* **partial merge** — an incomplete SW log absorbs the remaining valid
  pages of its data block, then replaces it;
* **full merge** — the oldest RW log block is scrubbed: every logical
  block with valid pages in it is rebuilt into a fresh block by
  gathering the latest copy of each page from wherever it lives (data
  block, victim, other logs).  This is the expensive operation that
  dominates FAST under random writes (Section II.A).

The log-block budget is provisioned from the SSD's extra blocks, which
is how the paper's Fig. 10 knob (percentage of extra blocks) reaches
FAST.  All page movement goes through the controller (no copy-back),
and the authoritative ``page_table`` resolves reads — FAST's
block-level tables are SRAM-resident, so lookups cost no flash time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import numpy as np

from repro.flash.address import PageState
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import Ftl, OutOfSpaceError
from repro.ftl.logblock import LogBlockMixin, MapJournal
from repro.obs.tracebus import BUS


@dataclass
class SwLog:
    block: int
    lbn: int


@dataclass
class FastStats:
    switch_merges: int = 0
    partial_merges: int = 0
    full_merges: int = 0
    merged_lbns: int = 0
    #: SW logs whose layout was shifted by program failures and had to
    #: close via a full-merge-style rebuild instead of switch/partial.
    shifted_closes: int = 0


class FastFtl(LogBlockMixin, Ftl):
    """Fully-associative sector translation hybrid FTL."""

    name = "fast"
    fault_injection_supported = True

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        num_log_blocks: Optional[int] = None,
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
            num_log_blocks = max(2, total_extra - margin)
        if num_log_blocks < 2:
            raise ValueError("FAST needs at least 2 log blocks (1 SW + 1 RW)")
        self.num_log_blocks = num_log_blocks
        self.sw: Optional[SwLog] = None
        self.current_rw: Optional[int] = None
        self.rw_blocks: Deque[int] = deque()
        self._log_count = 0
        self._log_plane_rr = 0
        self.fast_stats = FastStats()
        # Block-map persistence on plane 0 (Section V.D's observation
        # that FAST's mapping updates burden plane 0).
        self.map_journal = MapJournal(self.array, self.clock)

    # ---- host interface ---------------------------------------------------

    def read_page(self, lpn: int, start: float) -> float:
        if not 0 <= lpn < len(self.page_table):
            self.check_lpn(lpn)  # raises
        self.stats.host_reads += 1
        ppn = self.current_ppn(lpn)
        if ppn == -1:
            self.stats.unmapped_reads += 1
            return start
        if self.faults is None:
            return self.clock.read_page(self.codec.ppn_to_plane(ppn), start)
        return self._fault_read_data(lpn, ppn, start)

    def write_page(self, lpn: int, start: float) -> float:
        if not 0 <= lpn < len(self.page_table):
            self.check_lpn(lpn)  # raises
        self.stats.host_writes += 1
        lbn, off = divmod(lpn, self.pages_per_block)
        t = start
        if off == 0:
            # A stream begins: retire the previous SW log, start a new one.
            if self.sw is not None:
                t = self._close_sw(t)
            block, t = self._alloc_log_block(t)
            self.sw = SwLog(block, lbn)
            t = self._append_log(block, lpn, t)
        elif (
            self.sw is not None
            and self.sw.lbn == lbn
            and int(self.array.block_write_ptr[self.sw.block]) == off
        ):
            t = self._append_log(self.sw.block, lpn, t)
        else:
            t = self._append_rw(lpn, t)
        return t

    # ---- log management --------------------------------------------------------

    def _log_block_failed(self, block: int, lpn: int, now: float) -> float:
        # The log block filled up (or was queued for retirement) under
        # program failures: demote it to the RW queue and restart the
        # write in a fresh RW log block.
        self._demote_log_block(block)
        return self._append_rw(lpn, now)

    def _demote_log_block(self, block: int) -> None:
        """Strip ``block`` of its SW/current-RW role and queue it with
        the sealed RW logs.  It stays in log duty; a later full merge or
        retirement drain reclaims it."""
        if self.sw is not None and self.sw.block == block:
            self.sw = None
        if self.current_rw == block:
            self.current_rw = None
        if block not in self.rw_blocks:
            self.rw_blocks.append(block)

    def _append_rw(self, lpn: int, now: float) -> float:
        t = now
        rw = self.current_rw
        if rw is not None and self.array.block_write_ptr[rw] == self.pages_per_block:
            self.rw_blocks.append(rw)
            self.current_rw = None
        if self.current_rw is None:
            self.current_rw, t = self._alloc_log_block(t)
        return self._append_log(self.current_rw, lpn, t)

    def _alloc_log_block(self, now: float) -> Tuple[int, float]:
        """Take a block into log duty, reclaiming space if at budget."""
        t = now
        while self._log_count >= self.num_log_blocks:
            if self.rw_blocks:
                t = self._full_merge(t)
            elif self.current_rw is not None:
                self.rw_blocks.append(self.current_rw)
                self.current_rw = None
                t = self._full_merge(t)
            elif self.sw is not None:
                t = self._close_sw(t)
            else:
                raise OutOfSpaceError("log budget exhausted with no log blocks to merge")
        block = self._alloc_block(self._log_plane_rr % self.num_planes)
        self._log_plane_rr += 1
        self._log_count += 1
        return block, t

    # ---- merges (Section II.A) -------------------------------------------------

    def _close_sw(self, now: float) -> float:
        """Retire the SW log via switch merge or partial merge."""
        assert self.sw is not None
        sw = self.sw
        self.sw = None
        block, lbn = sw.block, sw.lbn
        filled = int(self.array.block_write_ptr[block])
        t = now
        if self.faults is not None and not self._sw_block_aligned(block, lbn, filled):
            # Program failures shifted the stream inside the log block,
            # so it cannot serve as an offset-aligned data block.
            # Rebuild the logical block the full-merge way; the shifted
            # log joins the RW queue (its pages go stale in the rebuild
            # and the next full merge erases it cheaply).
            self.rw_blocks.append(block)
            self.fast_stats.shifted_closes += 1
            t = self._merge_lbn(lbn, t)
            if BUS.enabled:
                BUS.emit("gc", "shifted_close", now, t - now,
                         {"lbn": lbn, "log_block": block},
                         f"plane:{self.codec.block_to_plane(block)}")
            return t
        if filled < self.pages_per_block:
            # Partial merge: pull the not-yet-streamed offsets in.
            t = self._fill_tail(block, lbn, filled, t)
            self.fast_stats.partial_merges += 1
            merge_kind = "partial_merge"
        else:
            self.fast_stats.switch_merges += 1
            merge_kind = "switch_merge"
        self._log_count -= 1
        t = self._switch_merge(block, lbn, t)
        if BUS.enabled:
            BUS.emit("gc", merge_kind, now, t - now,
                     {"lbn": lbn, "log_block": block},
                     f"plane:{self.codec.block_to_plane(block)}")
        return t

    def _sw_block_aligned(self, block: int, lbn: int, filled: int) -> bool:
        """True when every valid page of the SW log sits at its stream
        offset (program failures can shift the physical layout)."""
        first = self.codec.block_first_ppn(block)
        base = lbn * self.pages_per_block
        for off in range(filled):
            ppn = first + off
            if (self.array.state_of(ppn) == PageState.VALID
                    and self.array.owner_of(ppn) != base + off):
                return False
        return True

    def _full_merge(self, now: float) -> float:
        """Scrub the oldest RW log block (the costly merge)."""
        victim = self.rw_blocks.popleft()
        if BUS.enabled:
            # Same vocabulary as the base GC path: the RW log victim's
            # live-page count is FAST's death-time-grouping signal.
            BUS.emit("gc", "victim_selected", now, 0.0,
                     {"plane": self.codec.block_to_plane(victim),
                      "victim": victim,
                      "valid": int(self.array.block_valid[victim]),
                      "invalid": int(self.array.block_invalid[victim]),
                      "emergency": False},
                     None, "i")
        t = now
        lbns = sorted(
            {self.array.owner_of(ppn) // self.pages_per_block
             for ppn in self.array.valid_pages_in_block(victim)}
        )
        for lbn in lbns:
            t = self._merge_lbn(lbn, t)
            self.fast_stats.merged_lbns += 1
        if self.array.block_valid[victim] != 0:
            raise AssertionError(f"full merge left valid pages in victim {victim}")
        t = self._erase_block(victim, t)
        self._log_count -= 1
        self.fast_stats.full_merges += 1
        if BUS.enabled:
            BUS.emit("gc", "full_merge", now, t - now,
                     {"victim": victim, "merged_lbns": len(lbns)},
                     f"plane:{self.codec.block_to_plane(victim)}")
        return t

    def _merge_lbn(self, lbn: int, now: float) -> float:
        """Rebuild one logical block into a fresh physical block."""
        if self.sw is not None and self.sw.lbn == lbn:
            # The merge is about to supersede every page of the active SW
            # log; keep appending to it afterwards and the later
            # switch/partial merge would install stale data.  Dissolve it
            # into the RW queue (its pages all go invalid below, so the
            # next full merge erases it for free).
            self.rw_blocks.append(self.sw.block)
            self.sw = None
        return self._gather_merge_lbn(lbn, now)

    def _switch_merge(self, block: int, lbn: int, now: float) -> float:
        # As the mixin's, with the table change journalled before the
        # block it supersedes is erased.
        old_block = int(self.data_block[lbn])
        self.data_block[lbn] = block
        t = self.map_journal.record_update(now, lbn, block)
        if old_block != -1:
            t = self._erase_data_block(old_block, t)
        return t

    # ---- fault handling (repro.faults) -------------------------------------------

    def _retire_block_runtime(self, block: int, now: float) -> float:
        """Relocate live data off a failing block and retire it.

        The block is detached from any log/data role *first*: the
        relocation rewrites go through the RW log path, which can
        trigger merges that must not re-discover the block through a
        stale role.
        """
        t = now
        if self.sw is not None and self.sw.block == block:
            self.sw = None
            self._log_count -= 1
        elif self.current_rw == block:
            self.current_rw = None
            self._log_count -= 1
        elif block in self.rw_blocks:
            self.rw_blocks.remove(block)
            self._log_count -= 1
        else:
            lbns = np.flatnonzero(self.data_block == block)
            if lbns.size:
                lbn = int(lbns[0])
                self.data_block[lbn] = -1
                t = self.map_journal.record_update(t, lbn, -1)
        src_plane = self.codec.block_to_plane(block)
        for ppn in list(self.array.valid_pages_in_block(block)):
            if self.array.state_of(ppn) != PageState.VALID:
                continue  # a merge triggered by an earlier relocation moved it
            owner = int(self.array.owner_of(ppn))
            # _append_rw may run a full merge (with its own programs of
            # this owner) before the relocation's program, so staging
            # could be consumed by the wrong program — capture the
            # source generation and restamp the final location instead.
            src_gen = self.array.read_gen(ppn)
            t = self.clock.read_page(src_plane, t)
            t = self._append_rw(owner, t)
            new_ppn = int(self.page_table[owner])
            if src_gen is not None:
                self.array.restamp_gen(new_ppn, src_gen)
            self.gc_stats.moved_pages += 1
            self.gc_stats.controller_moves += 1
            if self.faults is not None:
                self.faults.stats.relocated_pages += 1
            if BUS.enabled:
                BUS.emit("fault", "relocate", t, 0.0,
                         {"block": block, "from_ppn": int(ppn),
                          "to_ppn": new_ppn, "src_plane": src_plane,
                          "dst_plane": self.codec.ppn_to_plane(new_ppn)},
                         None, "i")
        self.array.retire_block(block)
        if self.faults is not None:
            self.faults.stats.blocks_retired += 1
        if BUS.enabled:
            BUS.emit("fault", "block_retired", t, 0.0,
                     {"block": block, "plane": src_plane}, None, "i")
        return t

    # ---- power-loss recovery -------------------------------------------------------

    def on_power_loss(self) -> None:
        super().on_power_loss()
        # The SRAM log roles and the journal's ring bookkeeping are gone.
        self.sw = None
        self.current_rw = None
        self.rw_blocks.clear()
        self._log_count = 0
        self.map_journal.reset_volatile()

    def _post_recovery(self) -> None:
        """Rebuild the block map and log roles after a power cycle.

        1. The data-block table comes from the journal's persisted
           content, validated against page owners (an entry can be stale
           when a journal write was skipped on a tiny device).
        2. Remaining in-use blocks with live data are re-adopted as RW
           logs in write-stamp order (oldest first, matching the
           full-merge queue discipline); fully stale ones (the old
           journal ring, abandoned logs) are erased and pooled.
        """
        self.data_block.fill(-1)
        for lbn, block in sorted(self.map_journal.recorded_map().items()):
            if lbn >= self.num_lbns:
                continue
            if self.array.is_block_free(block) or self.array.is_block_bad(block):
                continue
            if self._block_serves_lbn(block, lbn):
                self.data_block[lbn] = block
        referenced = {int(b) for b in self.data_block if b != -1}
        orphans = []
        for block in range(self.geometry.num_physical_blocks):
            if (self.array.is_block_free(block) or self.array.is_block_bad(block)
                    or block in referenced):
                continue
            if self.array.block_valid[block] > 0:
                orphans.append(block)
            else:
                self.array.erase(block)
                self.array.release_block(block)
        orphans.sort(key=lambda b: (int(self.array.block_write_stamp[b]), b))
        self.rw_blocks.extend(orphans)
        self._log_count = len(orphans)

    def _block_serves_lbn(self, block: int, lbn: int) -> bool:
        """Every valid page in ``block`` belongs to ``lbn`` (journal
        entry still describes reality)."""
        base = lbn * self.pages_per_block
        for ppn in self.array.valid_pages_in_block(block):
            if not base <= self.array.owner_of(ppn) < base + self.pages_per_block:
                return False
        return True

    # ---- introspection -----------------------------------------------------------

    def log_blocks_in_use(self) -> int:
        return self._log_count
