"""Idle-time (background) garbage collection.

The paper models GC as foreground work charged to the triggering
request (as FlashSim does).  Production controllers also reclaim
during idle periods so bursts find free blocks ready.  This component
watches the controller's outstanding-request gauge: when the device
goes idle it waits a grace delay, then runs proactive GC passes
(`Ftl.background_collect`) one at a time, re-arming between passes so
an arriving request is only ever delayed by the single pass already in
flight — the standard preemption granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ftl.base import Ftl
from repro.obs.tracebus import BUS
from repro.sim.engine import Engine


@dataclass
class BackgroundGcStats:
    ticks: int = 0
    passes: int = 0
    cancelled_ticks: int = 0


class BackgroundGc:
    """Drives proactive GC whenever the device is idle."""

    def __init__(
        self,
        engine: Engine,
        ftl: Ftl,
        controller,
        *,
        idle_delay_us: float = 200.0,
        target_free: Optional[int] = None,
        max_passes_per_idle: int = 64,
    ):
        if idle_delay_us < 0:
            raise ValueError("idle_delay_us must be >= 0")
        if max_passes_per_idle < 1:
            raise ValueError("max_passes_per_idle must be >= 1")
        if type(ftl)._gc_destinations is Ftl._gc_destinations:
            raise TypeError(
                f"{ftl.name}: FTL does not support background GC "
                "(hybrid log-block FTLs reclaim by merging, not by GC passes)"
            )
        self.engine = engine
        self.ftl = ftl
        self.controller = controller
        self.idle_delay_us = idle_delay_us
        self.target_free = target_free
        self.max_passes_per_idle = max_passes_per_idle
        self.stats = BackgroundGcStats()
        self._armed = None
        self._passes_this_idle = 0
        controller.on_idle.append(self._device_idle)

    # ---- event plumbing ------------------------------------------------------

    def _device_idle(self) -> None:
        """Controller reports zero outstanding requests."""
        self._passes_this_idle = 0
        self._arm(self.engine.now + self.idle_delay_us)

    def _arm(self, when: float) -> None:
        if self._armed is not None:
            self.engine.cancel(self._armed)
        self._armed = self.engine.schedule_at(when, self._tick)

    def _tick(self) -> None:
        self._armed = None
        self.stats.ticks += 1
        if self.controller.outstanding > 0:
            # a request arrived during the grace delay: stand down
            self.stats.cancelled_ticks += 1
            return
        start = max(self.engine.now, self.ftl.clock.quiesce_time())
        end, did_work = self.ftl.background_collect(start, self.target_free)
        if did_work:
            if BUS.enabled:
                BUS.emit("gc", "background_pass", start, end - start,
                         {"pass": self.stats.passes + 1}, "background_gc")
            self.stats.passes += 1
            self._passes_this_idle += 1
            if self._passes_this_idle < self.max_passes_per_idle:
                # re-arm right after this pass completes (still idle?)
                self._arm(max(end, self.engine.now))
