"""Superblock FTL (Jung et al., TECS 2010 — the paper's reference [10]).

A hybrid between block- and page-mapping: ``superblock_size`` adjacent
logical blocks form a *superblock* that owns a small, dynamic set of
physical blocks.  Inside the superblock pages are page-mapped (the
paper's hybrid taxonomy, Section II.A), so updates append to the
superblock's current block with no log/data distinction; when the set
grows past its budget, a superblock-local garbage collection copies the
most-invalid member block's valid pages forward and erases it.

Compared with FAST/BAST/LAST there are no merges at all — reclamation
cost scales with the victim's valid count — but the mapping state per
superblock is larger (the original stores it in the pages' spare
areas; we charge a plane-0 map-journal write per reclamation like the
other hybrids).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import Ftl, OutOfSpaceError, block_lpns
from repro.ftl.logblock import MapJournal


@dataclass
class SuperblockStats:
    local_gcs: int = 0
    dead_reclaims: int = 0


class SuperblockFtl(Ftl):
    """Superblock-based hybrid mapping FTL."""

    name = "superblock"

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        superblock_size: int = 8,
        extra_blocks_per_superblock: Optional[int] = None,
        gc_threshold: int = 3,
        debug_checks: bool = False,
    ):
        super().__init__(geometry, timing, gc_threshold=gc_threshold, debug_checks=debug_checks)
        if superblock_size < 1:
            raise ValueError("superblock_size must be >= 1")
        ppb = geometry.pages_per_block
        self.pages_per_block = ppb
        self.num_planes = geometry.num_planes
        self.superblock_size = superblock_size
        self.pages_per_superblock = superblock_size * ppb
        self.num_superblocks = -(-geometry.num_lpns // self.pages_per_superblock)
        if extra_blocks_per_superblock is None:
            # share the device's over-provisioning evenly, min 1
            total_extra = geometry.num_planes * geometry.extra_blocks_per_plane
            extra_blocks_per_superblock = max(1, total_extra // max(1, self.num_superblocks) - 1)
        if extra_blocks_per_superblock < 1:
            raise ValueError("extra_blocks_per_superblock must be >= 1")
        self.extra_per_superblock = extra_blocks_per_superblock
        self.block_budget = superblock_size + extra_blocks_per_superblock
        # physical blocks owned per superblock; last entry is the write point
        self._blocks: Dict[int, List[int]] = {}
        self._current: Dict[int, int] = {}
        self._plane_rr = 0
        self.map_journal = MapJournal(self.array, self.clock)
        self.sb_stats = SuperblockStats()

    # ---- helpers -------------------------------------------------------------

    def superblock_of(self, lpn: int) -> int:
        return lpn // self.pages_per_superblock

    def _alloc_block(self) -> int:
        """Round-robin across planes: the next one with a free block."""
        for _ in range(self.num_planes):
            plane = self._plane_rr % self.num_planes
            self._plane_rr += 1
            if self.array.free_block_count(plane) > 0:
                return self.array.allocate_block(plane)
        raise OutOfSpaceError("no free blocks on any plane")

    def _write_point(self, sb: int, now: float) -> tuple:
        """The superblock's current block with a free page (may GC)."""
        t = now
        block = self._current.get(sb)
        if block is not None and self.array.block_free_pages(block) > 0:
            return block, t
        owned = self._blocks.setdefault(sb, [])
        passes = 0
        while len(owned) >= self.block_budget:
            current = self._current.get(sb)
            if not any(
                self.array.block_invalid[b] > 0 or self.array.block_valid[b] == 0
                for b in owned
                if b != current
            ):
                # Fully packed valid data: the budget is soft — grow by
                # one block; the next updates create invalids and local
                # GC shrinks the set back.
                break
            # A pass can be net-zero (victim mostly valid -> a fresh
            # destination block); bound the attempts per write.
            if passes > self.block_budget:
                raise OutOfSpaceError(f"superblock {sb} cannot reclaim within budget")
            t = self._collect_local(sb, t)
            passes += 1
        block = self._alloc_block()
        owned.append(block)
        self._current[sb] = block
        return block, t

    # ---- host interface ----------------------------------------------------------

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
        sb = self.superblock_of(lpn)
        block, t = self._write_point(sb, start)
        old_ppn = self.current_ppn(lpn)
        offset = int(self.array.block_write_ptr[block])
        ppn = self.codec.block_first_ppn(block) + offset
        self.array.program(ppn, lpn)
        t = self.clock.program_page(self.codec.block_to_plane(block), t)
        if old_ppn != -1:
            self.array.invalidate(old_ppn)
        self.page_table[lpn] = ppn
        if self.debug_checks:
            self.verify_integrity()
        return t

    # ---- superblock-local garbage collection -----------------------------------------

    def _collect_local(self, sb: int, now: float) -> float:
        """Reclaim the most-invalid member block of one superblock."""
        t = now
        owned = self._blocks[sb]
        current = self._current.get(sb)
        candidates = [b for b in owned if b != current]
        if not candidates:
            raise OutOfSpaceError(f"superblock {sb} has no reclaimable member")
        victim = max(candidates, key=lambda b: int(self.array.block_invalid[b]))
        if self.array.block_invalid[victim] == 0 and self.array.block_valid[victim] > 0:
            # every candidate fully valid: the superblock genuinely needs
            # its budget; caller grows it by stealing nothing — fail loud
            raise OutOfSpaceError(f"superblock {sb} full of valid data")
        valids = list(self.array.valid_pages_in_block(victim))
        if valids:
            for ppn in valids:
                owner = self.array.owner_of(ppn)
                dst_block, t = self._write_point_excluding(sb, victim, t)
                offset = int(self.array.block_write_ptr[dst_block])
                new_ppn = self.codec.block_first_ppn(dst_block) + offset
                self.array.stage_copy_gen(ppn)
                self.array.program(new_ppn, owner)
                t = self.clock.inter_plane_copy(
                    self.codec.ppn_to_plane(ppn), self.codec.block_to_plane(dst_block), t
                )
                self.gc_stats.controller_moves += 1
                self.gc_stats.moved_pages += 1
                self.array.invalidate(ppn)
                self.page_table[owner] = new_ppn
        else:
            self.sb_stats.dead_reclaims += 1
        t = self._erase_block(victim, t)
        owned.remove(victim)
        if self._current.get(sb) == victim:
            self._current.pop(sb)
        t = self.map_journal.record_update(t)
        self.sb_stats.local_gcs += 1
        return t

    def _write_point_excluding(self, sb: int, excluded: int, now: float) -> tuple:
        """Write point for GC destinations (never the victim itself)."""
        t = now
        block = self._current.get(sb)
        if block is not None and block != excluded and self.array.block_free_pages(block) > 0:
            return block, t
        block = self._alloc_block()
        self._blocks[sb].append(block)
        self._current[sb] = block
        return block, t

    # ---- power-loss recovery -------------------------------------------------------

    def on_power_loss(self) -> None:
        super().on_power_loss()
        # Superblock membership, the write points and the journal's ring
        # bookkeeping all live in SRAM.
        self._blocks.clear()
        self._current.clear()
        self.map_journal.reset_volatile()

    def _post_recovery(self) -> None:
        """Rebuild superblock membership from the pages' owners.

        A block belongs to the superblock of the pages it holds (oldest
        first, as they were claimed); fully stale blocks (the old journal
        ring, dead members) are erased and pooled.  Open blocks are not
        re-adopted as write points: their free tail waits for local GC.
        """
        array = self.array
        members = []
        for block in range(self.geometry.num_physical_blocks):
            if array.is_block_free(block) or array.is_block_bad(block):
                continue
            if array.block_valid[block] > 0:
                members.append(block)
            else:
                array.erase(block)
                array.release_block(block)
        members.sort(key=lambda b: (int(array.block_write_stamp[b]), b))
        for block in members:
            owner = array.owner_of(next(array.valid_pages_in_block(block)))
            self._blocks.setdefault(self.superblock_of(owner), []).append(block)

    # ---- preconditioning ---------------------------------------------------------

    def bulk_fill(self, count: int) -> None:
        ppb = self.pages_per_block
        full_blocks = count // ppb
        for i, lpns in enumerate(block_lpns(full_blocks, ppb)):
            first = i * ppb
            sb = first // self.pages_per_superblock
            block = self._alloc_block()
            self._blocks.setdefault(sb, []).append(block)
            self.page_table_np[first : first + ppb] = self.array.bulk_fill_block(block, lpns)
        for lpn in range(full_blocks * ppb, count):
            self.write_page(lpn, 0.0)

    # ---- introspection --------------------------------------------------------------

    def blocks_owned(self, sb: int) -> int:
        return len(self._blocks.get(sb, ()))

    def describe_superblocks(self) -> dict:
        owned = [len(blocks) for blocks in self._blocks.values()]
        return {
            "superblocks_active": len(self._blocks),
            "blocks_owned_max": max(owned) if owned else 0,
            "local_gcs": self.sb_stats.local_gcs,
            "dead_reclaims": self.sb_stats.dead_reclaims,
        }
