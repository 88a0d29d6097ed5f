"""Ideal page-mapping FTL: the whole map in SRAM, no translation traffic.

Serves two purposes:

* an upper-bound reference — how much of DLOOP's cost is the
  demand-paged mapping machinery;
* the striping ablation (A2 in DESIGN.md) — the write-placement policy
  is pluggable: ``lpn`` (DLOOP's Eq. 1), ``roaming`` (DFTL-style single
  active block), or ``random`` (uniform random plane per write).
"""

from __future__ import annotations

import random

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.allocator import PlaneAllocator, RoamingAllocator
from repro.flash.array import FlashStateError
from repro.ftl.base import Ftl, OutOfSpaceError

STRIPING_POLICIES = ("lpn", "roaming", "random")


class PageMapFtl(Ftl):
    """Pure page-mapping FTL with unlimited SRAM."""

    name = "pagemap"

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        striping: str = "lpn",
        use_copyback: bool = True,
        gc_threshold: int = 3,
        seed: int = 0,
        gc_victim_policy: str = "greedy",
        debug_checks: bool = False,
    ):
        super().__init__(
            geometry,
            timing,
            gc_threshold=gc_threshold,
            gc_victim_policy=gc_victim_policy,
            debug_checks=debug_checks,
        )
        if striping not in STRIPING_POLICIES:
            raise ValueError(f"striping must be one of {STRIPING_POLICIES}")
        self.striping = striping
        # the roaming block may sit on another plane: no copy-back there
        self.use_copyback = use_copyback and striping != "roaming"
        self.num_planes = geometry.num_planes
        self._rng = random.Random(seed)
        if striping == "roaming":
            self.roaming = RoamingAllocator(self.array)
            self.allocators = None
        else:
            self.roaming = None
            self.allocators = [PlaneAllocator(p, self.array) for p in range(self.num_planes)]

    # ---- placement -----------------------------------------------------------

    def _place(self, lpn: int) -> int:
        """Program the new copy of ``lpn``; returns its PPN."""
        if self.striping == "roaming":
            return self.roaming.allocate(lpn)
        if self.striping == "lpn":
            plane = lpn % self.num_planes
        else:
            plane = self._rng.randrange(self.num_planes)
        return self.allocators[plane].allocate(lpn)

    def _active_blocks(self, plane: int) -> set:
        if self.roaming is not None:
            return self.roaming.active_blocks()
        return self.allocators[plane].active_blocks()

    # ---- host interface ----------------------------------------------------------

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
        try:
            if self.roaming is not None:
                start = self._maybe_gc(self.roaming.peek_plane(), start)
            elif self.striping == "lpn":
                start = self._maybe_gc(lpn % self.num_planes, start)
        except FlashStateError as exc:
            # peek_plane / GC found no destination space anywhere:
            # genuine end of life, fail this request gracefully.
            raise OutOfSpaceError(f"cannot place write for lpn {lpn} — device full") from exc
        old_ppn = self.current_ppn(lpn)
        try:
            new_ppn = self._place(lpn)
        except FlashStateError as exc:
            raise OutOfSpaceError(f"cannot place write for lpn {lpn} — device full") from exc
        plane = self.codec.ppn_to_plane(new_ppn)
        t = self.clock.program_page(plane, start)
        if old_ppn != -1:
            self.array.invalidate(old_ppn)
        self.page_table[lpn] = new_ppn
        t = self._maybe_gc(plane, t)
        if self.debug_checks:
            self.verify_integrity()
        return t

    # ---- preconditioning --------------------------------------------------------

    def bulk_fill(self, count: int) -> None:
        if self.striping == "lpn":
            self._bulk_fill_striped(count)
        else:
            self._bulk_fill_blocks(count)

    # ---- garbage collection ---------------------------------------------------------

    def _gc_exclude(self, plane: int) -> set:
        return self._active_blocks(plane)

    def _gc_destinations(self, plane: int) -> tuple:
        allocator = self.roaming if self.roaming is not None else self.allocators[plane]
        return allocator, allocator
