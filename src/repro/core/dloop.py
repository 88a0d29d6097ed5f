"""DLOOP: Data Log On One Plane (Section III).

Key behaviours, each tied to the paper:

* **Striping** — a page's home plane is ``LPN % num_planes`` (Eq. 1),
  for data and translation pages alike, so sequential requests fan out
  over planes/channels and mapping lookups are served by all planes.
* **Logs on the data's plane** — updates are written to the *current
  free block* of the original page's plane (Section III.B), so every
  valid-page move during GC stays intra-plane.
* **Copy-back GC** — the victim is the plane's block with the most
  invalid pages; valid pages move by copy-back under the same-parity
  rule, wasting a free page when parities disagree (Fig. 5).
* **Demand-paged mapping** — CMT (segmented LRU) + GTD exactly as DFTL,
  but translation pages are striped by ``tvpn % num_planes`` instead of
  pinned to one plane.
"""

from __future__ import annotations

from repro.flash.address import OWNER_NONE
from repro.flash.array import PAGE_FREE, PAGE_INVALID, PAGE_VALID, FlashStateError
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.allocator import PlaneAllocator
from repro.ftl.base import OutOfSpaceError
from repro.ftl.translation import DemandPagedFtl
from repro.obs.tracebus import BUS


class DloopFtl(DemandPagedFtl):
    """The paper's plane-parallel page-mapping FTL.

    ``write_page`` and the inherited ``read_page`` and ``_collect`` are
    the page protocol every run executes — benchmarked, traced, sanitized,
    faulted or subclassed alike.  They are straight-line code: each
    costs a handful of calls (into the translation manager, the write
    point, the array and the timekeeper), because a Python call per
    primitive is what dominates host time per simulated page.
    """

    name = "dloop"

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        cmt_entries: int = 4096,
        gc_threshold: int = 3,
        max_gc_passes: int = 8,
        use_copyback: bool = True,
        gc_victim_policy: str = "greedy",
        translation_gc_mode: str = "batched",
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
        self.num_planes = geometry.num_planes
        self.allocators = [PlaneAllocator(p, self.array) for p in range(self.num_planes)]
        # use_copyback=False is the A1 ablation: identical placement,
        # but GC moves pages through the controller like everyone else.
        self.use_copyback = use_copyback

    def _fallback_allocator(self):
        counts = [self.array.free_block_count(p) for p in range(self.num_planes)]
        return self.allocators[max(range(self.num_planes), key=lambda p: counts[p])]

    # ---- fault injection -----------------------------------------------------

    def _all_allocators(self):
        return self.allocators

    def _fault_relocation_alloc(self, owner: int, src_plane: int) -> int:
        # Relocations off a retiring block stay on its plane when it has
        # space (preserving copy-back eligibility for later GC), roaming
        # only when the plane is full.
        try:
            return self._gc_destination_allocator(src_plane).allocate(owner)
        except FlashStateError:
            return self._gc_alloc_any(owner)

    # ---- allocator hooks (overridden by the hot/cold variant) -----------------

    def _host_allocator(self, plane: int, lpn: int) -> PlaneAllocator:
        """Write point for a host write of ``lpn`` on ``plane``."""
        return self.allocators[plane]

    def _gc_destination_allocator(self, plane: int) -> PlaneAllocator:
        """Write point for GC-relocated pages on ``plane``."""
        return self.allocators[plane]

    def _translation_allocator(self, plane: int) -> PlaneAllocator:
        return self.allocators[plane]

    # ---- placement policy (Eq. 1) -------------------------------------------

    def plane_of_lpn(self, lpn: int) -> int:
        return lpn % self.num_planes

    def plane_of_tvpn(self, tvpn: int) -> int:
        return tvpn % self.num_planes

    # ---- host interface -------------------------------------------------------

    def write_page(self, lpn: int, start: float) -> float:
        if not 0 <= lpn < self._num_lpns:
            self.check_lpn(lpn)  # raises
        self.stats.host_writes += 1
        plane = lpn % self.num_planes  # Eq. 1
        t = self.tm.charge_lookup(lpn, start)
        array = self.array
        # Reclaim space *before* taking a page so the pool never empties
        # under the incoming write.  (_maybe_gc does nothing unless a
        # pass is running or some plane is low; skip the call then.)
        if self._gc_planes or array.gc_low_plane_count:
            try:
                t = self._maybe_gc(plane, t)
            except FlashStateError as exc:
                # GC itself ran out of destination space: the plane cannot
                # absorb this write.  Partial collections are consistent
                # (moved pages are already remapped), so fail per-request.
                raise OutOfSpaceError(
                    f"plane {plane}: cannot reclaim space for lpn {lpn} — device full"
                ) from exc
        old_ppn = self.page_table[lpn]
        ppb = self._pages_per_block
        faults = self.faults
        try:
            allocator = self._host_allocator(plane, lpn)
            if faults is None:
                # allocator.allocate(lpn) and FlashArray.program, less the
                # calls: the array's checks, generation stamp and event are
                # kept (its ascending-order check cannot fail here — this
                # is the block's next page).
                block = allocator.current_block
                if block is None or array.block_write_ptr[block] == ppb:
                    block = allocator._ensure_block()
                offset = array.block_write_ptr[block]
                new_ppn = block * ppb + offset
                if array.page_state[new_ppn] != PAGE_FREE:
                    raise FlashStateError(f"program of non-free page {new_ppn}")
                if array._block_is_free[block]:
                    raise FlashStateError(f"program into unallocated block {block}")
                array.block_write_ptr[block] = offset + 1
                array.page_state[new_ppn] = PAGE_VALID
                array.page_owner[new_ppn] = lpn
                array.block_valid[block] += 1
                array.write_stamp = stamp = array.write_stamp + 1
                array.block_write_stamp[block] = stamp
                if array.page_gen is not None:
                    gen = array.stamp_gen(new_ppn, lpn)
                    if BUS.enabled:
                        BUS.emit("array", "program", 0.0, 0.0,
                                 {"ppn": new_ppn, "owner": lpn, "gen": gen}, None, "i")
                elif BUS.enabled:
                    BUS.emit("array", "program", 0.0, 0.0,
                             {"ppn": new_ppn, "owner": lpn}, None, "i")
            else:
                # Fault-aware path: a failed program burns the page and
                # retries on the same plane (the allocator is plane-bound).
                new_ppn, t = faults.program(allocator, lpn, t)
        except FlashStateError as exc:
            raise OutOfSpaceError(
                f"plane {plane}: cannot place write for lpn {lpn} — device full"
            ) from exc
        if faults is None:
            t = self.clock.program_page(plane, t)
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
        self.page_table[lpn] = new_ppn
        t = self.tm.charge_update(lpn, t)
        if self._gc_planes or array.gc_low_plane_count:
            t = self._maybe_gc(plane, t)
        if self.debug_checks:
            self.verify_integrity()
        return t

    # ---- preconditioning --------------------------------------------------------

    def bulk_fill(self, count: int) -> None:
        self._bulk_fill_striped(count)
        self._bulk_fill_translation(count)

    # ---- garbage collection (Section III.C, Fig. 5) ------------------------------

    def _gc_exclude(self, plane: int) -> set:
        return (
            self.allocators[plane].active_blocks()
            | self._gc_destination_allocator(plane).active_blocks()
        )

    def _gc_destinations(self, plane: int) -> tuple:
        # Data and translation pages alike stay on the victim's plane,
        # which is what makes every move copy-back eligible.
        allocator = self._gc_destination_allocator(plane)
        return allocator, allocator
