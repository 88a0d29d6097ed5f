"""DFTL baseline (Gupta et al., ASPLOS'09) as the paper models it.

Demand-based page mapping: the full logical-to-physical map lives in
flash *translation pages*; a small SRAM CMT caches popular entries
(segmented LRU) and a GTD locates translation pages.  The page protocol
is :class:`~repro.ftl.translation.DemandPagedFtl`'s, the same code DLOOP
runs; the differences from DLOOP that the paper calls out (Sections
II.B, V.B, V.D) are this class's overrides:

* translation pages are kept together on **plane 0** rather than
  striped, so mapping traffic concentrates there (``plane_of_tvpn``,
  ``_translation_allocator``);
* data writes fill a **single global active block**, so bursts queue on
  one plane at a time instead of fanning out (``_host_write_point``);
* GC moves valid pages through the controller (no copy-back), paying
  bus time twice per page (``_gc_destinations``, ``use_copyback`` left
  false).
"""

from __future__ import annotations

from typing import Tuple

from repro.flash.array import FlashStateError
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.allocator import PlaneAllocator, RoamingAllocator
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

    def _host_write_point(self, lpn: int) -> Tuple[int, RoamingAllocator]:
        # Open the global active block now if none is open, so the
        # pre-write GC is triggered for the plane the write will land on.
        allocator = self.data_allocator
        block = allocator.current_block
        if block is None or self.array.block_write_ptr[block] == self._pages_per_block:
            try:
                allocator._ensure_block()
            except FlashStateError as exc:
                # At genuine end of life even that fails — surface the
                # per-request error.
                raise OutOfSpaceError(f"cannot place write for lpn {lpn} — device full") from exc
        plane = allocator.current_plane
        assert plane is not None
        return plane, allocator

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
