"""Shared machinery for hybrid log-block FTLs (Section II.A).

All log-block schemes (BAST, FAST, LAST) share a skeleton:
block-mapped data blocks, a bounded pool of page-mapped log blocks, and
merge operations that fold logs back into data blocks.  This mixin
provides the common pieces; the schemes differ in how they *associate*
log blocks with logical blocks and pick merge victims.

The authoritative ``page_table`` (from :class:`repro.ftl.base.Ftl`)
resolves reads; these FTLs keep their block tables in SRAM so lookups
cost no flash time.
"""

from __future__ import annotations

import numpy as np

from repro.flash.address import OWNER_NONE
from repro.flash.array import PAGE_FREE, PAGE_INVALID, PAGE_VALID, FlashStateError
from repro.ftl.base import OutOfSpaceError, block_lpns
from repro.obs.tracebus import BUS


class MapJournal:
    """Persistent block-map journal on plane 0.

    Section V.D: "DFTL and FAST both have a large number of page/block
    mapping information requests arriving to plane 0, which largely
    burdens plane 0."  Hybrid FTLs keep their (small) block-level tables
    in SRAM but must persist every table update; this journal appends
    one map page per table change to a ring of dedicated plane-0
    blocks, erasing the oldest ring block when full (old journal pages
    are superseded by construction, so no valid-page copying is needed).
    """

    PLANE = 0

    def __init__(self, array, clock, ring_blocks: int = 2):
        if ring_blocks < 1:
            raise ValueError("ring_blocks must be >= 1")
        self.array = array
        self.clock = clock
        self.ring_blocks = ring_blocks
        self._ring: list = []
        self._current = None
        self.map_writes = 0
        # Logical content model of the journal: the block-map entries
        # whose updates actually reached flash.  Survives a power cycle
        # (it models on-flash data); ``reset_volatile`` does not touch
        # it.  Entries become stale only through an update whose
        # persistence ``record_update`` skipped (recovery must validate
        # against page owners).
        self._persisted: dict = {}

    def record_update(self, now: float, lbn: int | None = None,
                      block: int | None = None) -> float:
        """Append one map page; returns the time afterwards.

        ``lbn``/``block`` describe the table change being journalled
        (``block == -1`` records a deletion); callers that only want the
        cost model may omit them.
        """
        t = now
        if self._current is None or self.array.block_free_pages(self._current) == 0:
            t = self._advance_ring(t)
            if self._current is None:
                # plane 0 fully committed to data on an extremely small
                # device: skip persistence (cost model only).  The
                # update never reaches flash, so the persisted content
                # model keeps its stale entry.
                return t
        journal_block = self._current
        offset = int(self.array.block_write_ptr[journal_block])
        ppn = self.array.codec.block_first_ppn(journal_block) + offset
        # Journal pages carry no owner the FTL tracks (OWNER_NONE, not
        # a fake LPN that event-stream consumers would confuse with a
        # real page-0 mapping); mark them stale immediately (superseded
        # by the next snapshot) so the ring erases cleanly.
        self.array.program(ppn, OWNER_NONE)
        self.array.invalidate(ppn)
        t = self.clock.program_page(self.PLANE, t)
        self.map_writes += 1
        if lbn is not None:
            if block is None or block == -1:
                self._persisted.pop(int(lbn), None)
            else:
                self._persisted[int(lbn)] = int(block)
        # The commit is durable from here: the record reached flash and
        # the content model reflects it.  (A crash between the program
        # above and this point models a torn append — the record is
        # discarded at recovery, exactly like a CRC-invalid page.)
        if BUS.enabled:
            BUS.emit("journal", "commit", t, 0.0,
                     {"lbn": -1 if lbn is None else int(lbn),
                      "block": -1 if block is None else int(block)},
                     None, "i")
        return t

    def recorded_map(self) -> dict:
        """The block-map content recoverable from the journal."""
        return dict(self._persisted)

    def reset_volatile(self) -> None:
        """Forget the in-RAM ring bookkeeping (power loss).

        The ring's physical blocks stay allocated on flash; recovery
        treats them as orphans (all pages invalid) and reclaims them.
        """
        self._ring.clear()
        self._current = None

    def _advance_ring(self, now: float) -> float:
        t = now
        if len(self._ring) >= self.ring_blocks:
            t = self._recycle_oldest(t)
        if self.array.free_block_count(self.PLANE) == 0:
            if not self._ring:
                # plane 0 exhausted before the journal ever owned a
                # block (extreme scaled geometries): disable persistence
                self._current = None
                return t
            t = self._recycle_oldest(t)
        block = self.array.allocate_block(self.PLANE)
        self._ring.append(block)
        self._current = block
        return t

    def _recycle_oldest(self, now: float) -> float:
        # journal data is superseded by construction: nothing to copy out
        oldest = self._ring.pop(0)
        t = self.clock.erase_block(self.PLANE, now)
        self.array.erase(oldest)
        self.array.release_block(oldest)
        return t


class _BlockCursor:
    """Adapter giving one fixed log block the allocator protocol the
    fault injector drives.  Raises when the block fills (or is abandoned
    by a retirement decision) so the FTL can demote it and retry."""

    __slots__ = ("array", "current_block")

    def __init__(self, array, block: int):
        self.array = array
        self.current_block = block

    def _ensure_block(self) -> int:
        block = self.current_block
        if block is None or self.array.block_free_pages(block) == 0:
            raise FlashStateError("log block exhausted mid-append")
        return block


class LogBlockMixin:
    """Common helpers; the host class must be an ``Ftl`` with
    ``pages_per_block``, ``num_planes``, ``data_block`` and
    ``map_journal`` attributes.  A host with fault-injection seams also
    provides ``_log_block_failed(block, lpn, now)``: where the write
    goes when program failures used up its log block."""

    def _alloc_block(self, preferred_plane: int) -> int:
        """Free block from the preferred plane, else the fullest pool."""
        if self.array.free_block_count(preferred_plane) > 0:
            return self.array.allocate_block(preferred_plane)
        best = max(range(self.num_planes), key=self.array.free_block_count)
        if self.array.free_block_count(best) == 0:
            raise OutOfSpaceError("no free blocks on any plane")
        return self.array.allocate_block(best)

    def _erase_data_block(self, block: int, now: float) -> float:
        """Erase and pool a block whose pages are all invalid."""
        if self.array.block_valid[block] != 0:
            raise AssertionError(f"retiring block {block} with valid pages")
        return self._erase_block(block, now)

    def _append_log(self, block: int, lpn: int, now: float) -> float:
        """Program the next sequential page of a log block with ``lpn``."""
        array = self.array
        page_table = self.page_table
        old_ppn = page_table[lpn]
        ppb = self.pages_per_block
        faults = self.faults
        if faults is None:
            # FlashArray.program, less the call: its checks, generation
            # stamp and event are kept (the ascending-order check cannot
            # fail — this is the block's next page).
            offset = array.block_write_ptr[block]
            ppn = block * ppb + offset
            if array.page_state[ppn] != PAGE_FREE:
                raise FlashStateError(f"program of non-free page {ppn}")
            if array._block_is_free[block]:
                raise FlashStateError(f"program into unallocated block {block}")
            array.block_write_ptr[block] = offset + 1
            array.page_state[ppn] = PAGE_VALID
            array.page_owner[ppn] = lpn
            array.block_valid[block] += 1
            array.write_stamp = stamp = array.write_stamp + 1
            array.block_write_stamp[block] = stamp
            if array.page_gen is not None:
                gen = array.stamp_gen(ppn, lpn)
                if BUS.enabled:
                    BUS.emit("array", "program", 0.0, 0.0,
                             {"ppn": ppn, "owner": lpn, "gen": gen}, None, "i")
            elif BUS.enabled:
                BUS.emit("array", "program", 0.0, 0.0, {"ppn": ppn, "owner": lpn}, None, "i")
            t = self.clock.program_page(block // self.codec._blocks_per_plane, now)
        else:
            try:
                ppn, t = faults.program(_BlockCursor(array, block), lpn, now)
            except FlashStateError:
                return self._log_block_failed(block, lpn, now)
        if old_ppn != -1:
            # FlashArray.invalidate(old_ppn), less the call
            if array.page_state[old_ppn] != PAGE_VALID:
                raise FlashStateError(f"invalidate of non-valid page {old_ppn}")
            old_block = old_ppn // ppb
            array.page_state[old_ppn] = PAGE_INVALID
            array.page_owner[old_ppn] = OWNER_NONE
            array.block_valid[old_block] -= 1
            array.block_invalid[old_block] += 1
            if BUS.enabled:
                BUS.emit("array", "invalidate", 0.0, 0.0, {"ppn": old_ppn}, None, "i")
        page_table[lpn] = ppn
        return t

    def _fill_tail(self, block: int, lbn: int, first_off: int, now: float) -> float:
        """Copy offsets ``first_off..P-1``'s latest copies into ``block``
        through the controller: the partial-merge move of Section II.A,
        and from offset 0 the gather of a full merge.

        Per page, in this order: program the destination, price the
        copy, count it, invalidate the source, remap.  The order is
        load-bearing — between the program and the invalidate two VALID
        pages carry one owner, the state recovery's duplicate-owner
        scrub resolves, and the torture arm crashes from inside either
        ``array`` event — so the loop hoists its lookups, spells the two
        ``FlashArray`` transitions out with their checks, and changes
        nothing else.
        """
        t = now
        ppb = self.pages_per_block
        array = self.array
        page_table = self.page_table
        page_state = array.page_state
        page_owner = array.page_owner
        block_valid = array.block_valid
        block_invalid = array.block_invalid
        block_write_ptr = array.block_write_ptr
        block_write_stamp = array.block_write_stamp
        block_is_free = array._block_is_free
        gc_stats = self.gc_stats
        # Bound per call, not per instance: observers rebind the clock's
        # methods on the instance after construction.
        inter_plane_copy = self.clock.inter_plane_copy
        pages_per_plane = self.codec._blocks_per_plane * ppb
        dst_plane = block // self.codec._blocks_per_plane
        base_lpn = lbn * ppb
        first_ppn = block * ppb
        for off in range(first_off, ppb):
            lpn = base_lpn + off
            src_ppn = page_table[lpn]
            if src_ppn == -1:
                continue  # hole: page never written; leave it free
            if array.page_gen is not None:
                array.stage_copy_gen(src_ppn)
            # FlashArray.program(new_ppn, lpn), less the call
            new_ppn = first_ppn + off
            if page_state[new_ppn] != PAGE_FREE:
                raise FlashStateError(f"program of non-free page {new_ppn}")
            if off < block_write_ptr[block]:
                raise FlashStateError(
                    f"out-of-order program: page {off} of block {block}, "
                    f"write ptr at {block_write_ptr[block]}"
                )
            if block_is_free[block]:
                raise FlashStateError(f"program into unallocated block {block}")
            block_write_ptr[block] = off + 1
            page_state[new_ppn] = PAGE_VALID
            page_owner[new_ppn] = lpn
            block_valid[block] += 1
            array.write_stamp = stamp = array.write_stamp + 1
            block_write_stamp[block] = stamp
            if array.page_gen is not None:
                gen = array.stamp_gen(new_ppn, lpn)
                if BUS.enabled:
                    BUS.emit("array", "program", 0.0, 0.0,
                             {"ppn": new_ppn, "owner": lpn, "gen": gen}, None, "i")
            elif BUS.enabled:
                BUS.emit("array", "program", 0.0, 0.0, {"ppn": new_ppn, "owner": lpn}, None, "i")
            t = inter_plane_copy(src_ppn // pages_per_plane, dst_plane, t)
            gc_stats.controller_moves += 1
            gc_stats.moved_pages += 1
            # FlashArray.invalidate(src_ppn), less the call
            if page_state[src_ppn] != PAGE_VALID:
                raise FlashStateError(f"invalidate of non-valid page {src_ppn}")
            src_block = src_ppn // ppb
            page_state[src_ppn] = PAGE_INVALID
            page_owner[src_ppn] = OWNER_NONE
            block_valid[src_block] -= 1
            block_invalid[src_block] += 1
            if BUS.enabled:
                BUS.emit("array", "invalidate", 0.0, 0.0, {"ppn": src_ppn}, None, "i")
            page_table[lpn] = new_ppn
        return t

    def _gather_merge_lbn(self, lbn: int, now: float) -> float:
        """Rebuild one logical block into a fresh physical block.

        Gathers the latest valid copy of every page (data block, any log
        block) through the controller — the "full merge" of Section II.A.
        """
        new_block = self._alloc_block(lbn % self.num_planes)
        t = self._fill_tail(new_block, lbn, 0, now)
        return self._switch_merge(new_block, lbn, t)

    def _log_is_switchable(self, block: int, lbn: int) -> bool:
        """True when the log block holds every page of ``lbn`` in place
        (valid, offset-aligned) — eligible for a switch merge."""
        ppb = self.pages_per_block
        if int(self.array.block_write_ptr[block]) != ppb:
            return False
        first = self.codec.block_first_ppn(block)
        base_lpn = lbn * ppb
        for off in range(ppb):
            ppn = first + off
            if self.array.owner_of(ppn) != base_lpn + off:
                return False
            if self.current_ppn(base_lpn + off) != ppn:
                return False
        return True

    def _switch_merge(self, block: int, lbn: int, now: float) -> float:
        """Install ``block`` as ``lbn``'s data block and erase the one it
        replaces: the whole of a switch merge, the tail of the others."""
        old_block = int(self.data_block[lbn])
        self.data_block[lbn] = block
        t = now
        if old_block != -1:
            t = self._erase_data_block(old_block, t)
        return t

    def bulk_fill(self, count: int) -> None:
        """Vectorised sequential fill: whole logical blocks switch-merge
        directly into data blocks (what the incremental path produces)."""
        ppb = self.pages_per_block
        full_lbns = count // ppb
        for lbn, lpns in enumerate(block_lpns(full_lbns, ppb)):
            block = self._alloc_block(lbn % self.num_planes)
            first = lbn * ppb
            self.page_table_np[first : first + ppb] = self.array.bulk_fill_block(block, lpns)
            self.data_block[lbn] = block
        for lpn in range(full_lbns * ppb, count):
            self.write_page(lpn, 0.0)

    def log_block_summary(self) -> dict:
        """Introspection for tests/reports; subclasses may extend."""
        return {
            "data_blocks_mapped": int(np.count_nonzero(self.data_block != -1)),
        }
