"""DLOOP with hot/cold write-frontier separation.

An extension in the spirit of LAST's locality awareness applied to
DLOOP's plane-local logs: each plane keeps **two** current free blocks
— one for hot (recently re-written) pages, one for cold.  Hot pages die
together, so hot blocks become nearly all-invalid before GC touches
them (cheap reclamation), while cold blocks stop absorbing churn.
GC-relocated pages are cold by definition and go to the cold frontier.

Everything else (Eq. 1 striping, copy-back GC with the parity rule,
CMT/GTD demand paging) is inherited from :class:`DloopFtl`, so the
`dloop-hc` vs `dloop` comparison isolates exactly the frontier split.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.core.dloop import DloopFtl
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.allocator import PlaneAllocator


class HotColdDloopFtl(DloopFtl):
    """DLOOP with per-plane hot and cold write frontiers."""

    name = "dloop-hc"

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        hot_window: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(geometry, timing, **kwargs)
        # self.allocators (inherited) serve the COLD frontier; add hot ones.
        self.hot_allocators = [PlaneAllocator(p, self.array) for p in range(self.num_planes)]
        ppb = geometry.pages_per_block
        self.hot_window = hot_window if hot_window is not None else 8 * ppb * self.num_planes
        if self.hot_window < 1:
            raise ValueError("hot_window must be >= 1")
        self._recent: OrderedDict[int, None] = OrderedDict()
        self.hot_writes = 0
        self.cold_writes = 0

    # ---- hotness -----------------------------------------------------------

    def is_hot(self, lpn: int) -> bool:
        """Hot = re-written within the recent-write window."""
        return lpn in self._recent

    def _note_recent(self, lpn: int) -> None:
        self._recent[lpn] = None
        self._recent.move_to_end(lpn)
        while len(self._recent) > self.hot_window:
            self._recent.popitem(last=False)

    # ---- allocator hooks ------------------------------------------------------

    def _host_write_point(self, lpn: int) -> Tuple[int, PlaneAllocator]:
        plane = lpn % self.num_planes
        hot = self.is_hot(lpn)
        self._note_recent(lpn)
        if hot:
            self.hot_writes += 1
            return plane, self.hot_allocators[plane]
        self.cold_writes += 1
        return plane, self.allocators[plane]

    def _gc_destination_allocator(self, plane: int) -> PlaneAllocator:
        # GC survivors are cold by definition.
        return self.allocators[plane]

    def _gc_exclude(self, plane: int) -> set:
        return (
            self.allocators[plane].active_blocks()
            | self.hot_allocators[plane].active_blocks()
        )
