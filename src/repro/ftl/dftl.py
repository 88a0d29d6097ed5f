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

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.allocator import PlaneAllocator, RoamingAllocator
from repro.flash.array import FlashStateError
from repro.ftl.base import OutOfSpaceError
from repro.ftl.translation import DemandPagedFtl

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
        if not 0 <= lpn < self._num_lpns:
            self.check_lpn(lpn)  # raises
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
        self._bulk_fill_blocks(count)
        self._bulk_fill_translation(count)

    # ---- garbage collection ---------------------------------------------------

    def _gc_exclude(self, plane: int) -> set:
        return self.data_allocator.active_blocks() | self.translation_allocator.active_blocks()

    def _gc_destinations(self, plane: int) -> tuple:
        # Translation pages stay on plane 0 while it has room; when it is
        # exhausted mid-collection (or the pass is an emergency one) they
        # roam like data — the GTD is in SRAM, so reads still find them.
        return self.data_allocator, self.translation_allocator

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
