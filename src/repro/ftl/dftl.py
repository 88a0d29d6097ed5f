"""DFTL baseline (Gupta et al., ASPLOS'09) as the paper models it.

Demand-based page mapping: the full logical-to-physical map lives in
flash *translation pages*; a small SRAM CMT caches popular entries
(segmented LRU) and a GTD locates translation pages.  Differences from
DLOOP that the paper calls out (Sections II.B, V.B, V.D):

* translation pages are kept together on **plane 0** rather than
  striped, so mapping traffic concentrates there;
* data writes fill a **single global active block**, so bursts queue on
  one plane at a time instead of fanning out;
* GC moves valid pages through the controller (no copy-back), paying
  bus time twice per page.
"""

from __future__ import annotations

from repro.flash.address import decode_translation_owner, is_translation_owner
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.allocator import PlaneAllocator, RoamingAllocator
from repro.flash.array import FlashStateError
from repro.ftl.base import OutOfSpaceError
from repro.ftl.translation import DemandPagedFtl
from repro.obs.tracebus import BUS

TRANSLATION_PLANE = 0


class DftlFtl(DemandPagedFtl):
    """Demand-paged page-mapping FTL with plane-0 translation store."""

    name = "dftl"

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        cmt_entries: int = 4096,
        gc_threshold: int = 3,
        max_gc_passes: int = 8,
        translation_gc_mode: str = "batched",
        gc_victim_policy: str = "greedy",
        debug_checks: bool = False,
    ):
        super().__init__(
            geometry,
            timing,
            cmt_entries=cmt_entries,
            translation_gc_mode=translation_gc_mode,
            gc_threshold=gc_threshold,
            max_gc_passes=max_gc_passes,
            gc_victim_policy=gc_victim_policy,
            debug_checks=debug_checks,
        )
        self.data_allocator = RoamingAllocator(self.array)
        self.translation_allocator = PlaneAllocator(TRANSLATION_PLANE, self.array)

    # ---- placement policies -------------------------------------------------

    def plane_of_tvpn(self, tvpn: int) -> int:
        return TRANSLATION_PLANE

    def _translation_allocator(self, plane: int) -> PlaneAllocator:
        return self.translation_allocator

    def _fallback_allocator(self) -> RoamingAllocator:
        return self.data_allocator

    def _all_allocators(self):
        return (self.data_allocator, self.translation_allocator)

    # ---- host interface ---------------------------------------------------

    def write_page(self, lpn: int, start: float) -> float:
        self.check_lpn(lpn)
        self.stats.host_writes += 1
        t = self.tm.charge_lookup(lpn, start)
        try:
            t = self._maybe_gc(self.data_allocator.peek_plane(), t)
        except FlashStateError as exc:
            # peek_plane opens a block if none is active; at genuine end
            # of life even that fails — surface the per-request error.
            raise OutOfSpaceError(f"cannot place write for lpn {lpn} — device full") from exc
        old_ppn = self.current_ppn(lpn)
        faults = self.faults
        if faults is None:
            try:
                new_ppn = self.data_allocator.allocate(lpn)
            except FlashStateError as exc:
                raise OutOfSpaceError(f"cannot place write for lpn {lpn} — device full") from exc
            plane = self.codec.ppn_to_plane(new_ppn)
            t = self.clock.program_page(plane, t)
        else:
            try:
                new_ppn, t = faults.program(self.data_allocator, lpn, t)
            except FlashStateError as exc:
                raise OutOfSpaceError(f"cannot place write for lpn {lpn} — device full") from exc
            plane = self.codec.ppn_to_plane(new_ppn)
        if old_ppn != -1:
            self.array.invalidate(old_ppn)
        self.page_table[lpn] = new_ppn
        t = self.tm.charge_update(lpn, t)
        t = self._maybe_gc(plane, t)
        self._maybe_debug_check()
        return t

    # ---- preconditioning --------------------------------------------------------

    def bulk_fill(self, count: int) -> None:
        """Vectorised sequential fill: blocks round-robin across planes
        (the balanced steady state the roaming allocator converges to)."""
        import numpy as np

        ppb = self.geometry.pages_per_block
        planes = self.geometry.num_planes
        full_blocks = count // ppb
        for i in range(full_blocks):
            plane = i % planes
            block = self.array.allocate_block(plane)
            lpns = np.arange(i * ppb, (i + 1) * ppb, dtype=np.int64)
            self.page_table_np[lpns] = self.array.bulk_fill_block(block, lpns)
        for lpn in range(full_blocks * ppb, count):
            self.write_page(lpn, 0.0)
        if count > 0:
            for tvpn in range(self.gtd.tvpn_of(count - 1) + 1):
                self.tm.write_back(tvpn, 0.0)

    # ---- garbage collection ---------------------------------------------------

    def _gc_exclude(self, plane: int) -> set:
        return self.data_allocator.active_blocks() | self.translation_allocator.active_blocks()

    def _gc_close_active(self, plane: int):
        for allocator in (self.translation_allocator, self.data_allocator):
            block = allocator.current_block
            if (
                block is not None
                and self.codec.block_to_plane(block) == plane
                and self.array.block_invalid[block] > 0
            ):
                allocator.current_block = None
                return block
        return None

    def _gc_max_valid(self, plane: int):
        if plane != TRANSLATION_PLANE:
            return None  # data moves roam to other planes' pools
        allocator = self.translation_allocator
        current_free = (
            self.array.block_free_pages(allocator.current_block)
            if allocator.current_block is not None
            else 0
        )
        ppb = self.geometry.pages_per_block
        return current_free + max(0, self.array.free_block_count(plane) - 2) * ppb

    def _collect(self, plane: int, victim: int, now: float) -> float:
        t = now
        moved_data = []
        for ppn in list(self.array.valid_pages_in_block(victim)):
            owner = self.array.owner_of(ppn)
            self.array.stage_copy_gen(ppn)
            if is_translation_owner(owner):
                try:
                    new_ppn = self.translation_allocator.allocate(owner)
                except FlashStateError:
                    # Plane 0 exhausted mid-collection: let the page roam
                    # (the GTD points anywhere).
                    new_ppn = self.data_allocator.allocate(owner)
            else:
                new_ppn = self.data_allocator.allocate(owner)
            dst_plane = self.codec.ppn_to_plane(new_ppn)
            move_start = t
            t = self.clock.inter_plane_copy(plane, dst_plane, t)
            self.gc_stats.controller_moves += 1
            self.array.invalidate(ppn)
            self.gc_stats.moved_pages += 1
            if BUS.enabled:
                BUS.emit("gc", "migrate", move_start, 0.0,
                         {"plane": plane, "from_ppn": int(ppn), "to_ppn": int(new_ppn),
                          "mode": "controller"},
                         None, "i")
            if is_translation_owner(owner):
                self.gtd.update(decode_translation_owner(owner), new_ppn)
            else:
                self.page_table[owner] = new_ppn
                moved_data.append((owner, new_ppn))
        # Erase before the translation write-backs (pool low-water mark).
        t = self.clock.erase_block(plane, t)
        self.array.erase(victim)
        if self.faults is not None:
            self.faults.check_erase(victim)
        self.array.release_block(victim)
        self.gc_stats.erased_blocks += 1
        if moved_data:
            before = self.tm.stats.gc_batched_updates
            t = self.tm.gc_update_mappings(moved_data, t)
            self.gc_stats.translation_updates += self.tm.stats.gc_batched_updates - before
        return t

    # ---- emergency relocation hooks -----------------------------------------------

    def _gc_alloc_any(self, owner: int) -> int:
        # Emergency path: even translation pages may land off plane 0;
        # the GTD is in SRAM so reads still find them.
        return self.data_allocator.allocate(owner)
