"""Hot-plane-aware DLOOP — the paper's stated future work (Section VI).

"In its current format, DLOOP evenly distributes extra blocks across
all planes, which does not consider the need that planes with hot data
require more extra blocks to delay costly garbage collection.  In
future work, we will assign more extra blocks to hot planes."

Physical blocks cannot migrate between planes, so we model the uneven
*assignment of the over-provisioning budget*: every plane physically
has the same extra blocks, but cold planes *park* part of theirs
(removed from the free pool, never used) while hot planes keep all of
theirs available.  The global parked+active budget is constant, so the
comparison against uniform DLOOP is capacity-fair.  Hotness is the
plane's share of recent host writes, re-evaluated periodically.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.dloop import DloopFtl
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams


class HotPlaneDloopFtl(DloopFtl):
    """DLOOP with write-heat-proportional extra-block assignment."""

    name = "dloop-hot"

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        rebalance_period: int = 4096,
        reserved_fraction: float = 0.5,
        **kwargs,
    ):
        super().__init__(geometry, timing, **kwargs)
        if not 0.0 <= reserved_fraction <= 1.0:
            raise ValueError("reserved_fraction must be in [0, 1]")
        self.rebalance_period = rebalance_period
        # Fraction of each plane's extra blocks that always stays active;
        # the remainder is the float reassigned by heat.
        self.reserved_fraction = reserved_fraction
        self._write_heat = np.zeros(self.num_planes, dtype=np.int64)
        self._writes_since_rebalance = 0
        self._parked: List[list] = [[] for _ in range(self.num_planes)]
        extra = geometry.extra_blocks_per_plane
        self._base_extra = max(self.gc_threshold + 1, int(round(extra * reserved_fraction)))
        self._float_budget = max(0, (extra - self._base_extra)) * self.num_planes
        self.rebalances = 0
        self._apply_assignment(np.full(self.num_planes, 1.0 / self.num_planes))

    # ---- policy ----------------------------------------------------------

    def write_page(self, lpn: int, start: float) -> float:
        plane = self.plane_of_lpn(lpn)
        self._write_heat[plane] += 1
        self._writes_since_rebalance += 1
        if self._writes_since_rebalance >= self.rebalance_period:
            self._rebalance()
        return super().write_page(lpn, start)

    def _rebalance(self) -> None:
        self._writes_since_rebalance = 0
        total = self._write_heat.sum()
        if total == 0:
            return
        shares = self._write_heat / total
        self._apply_assignment(shares)
        # Exponential decay so hotness tracks the recent window.
        self._write_heat //= 2
        self.rebalances += 1

    def _apply_assignment(self, shares: np.ndarray) -> None:
        """Park/unpark extra blocks so each plane's active extras track its heat."""
        targets = np.floor(shares * self._float_budget).astype(int)
        extra = self.geometry.extra_blocks_per_plane
        for plane in range(self.num_planes):
            allowed_parked = max(0, (extra - self._base_extra) - int(targets[plane]))
            self._set_parked(plane, allowed_parked)

    def _set_parked(self, plane: int, count: int) -> None:
        parked = self._parked[plane]
        # Unpark first (always safe).
        while len(parked) > count:
            self.array.release_block(parked.pop())
        # Park only while the pool keeps a healthy margin above the GC
        # threshold — never starve a plane into an out-of-space corner.
        while len(parked) < count and self.array.free_block_count(plane) > self.gc_threshold + 1:
            block = self.array.allocate_block(plane)
            parked.append(block)
