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

from typing import Tuple

from repro.flash.array import FlashStateError
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.allocator import PlaneAllocator
from repro.ftl.translation import DemandPagedFtl


class DloopFtl(DemandPagedFtl):
    """The paper's plane-parallel page-mapping FTL.

    The page protocol (``read_page``, ``write_page``, ``trim_page``) is
    :class:`DemandPagedFtl`'s and the relocate-and-erase loop is
    ``Ftl._collect``; what is DLOOP here is where pages go — Eq. 1 for
    host writes and translation pages, the victim's own plane for GC —
    and that GC moves them by copy-back.
    """

    name = "dloop"

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        cmt_entries: int = 4096,
        gc_threshold: int = 3,
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

    def _host_write_point(self, lpn: int) -> Tuple[int, PlaneAllocator]:
        plane = lpn % self.num_planes  # Eq. 1
        return plane, self.allocators[plane]

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
