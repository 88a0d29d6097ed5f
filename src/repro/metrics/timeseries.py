"""Time-series telemetry over a simulation.

Thin rendering layer over the observability snapshot sampler
(:class:`repro.obs.sampler.StatsSampler`): the sampler owns the
clock-driven sampling pass (free-block levels, queue depth, CMT
occupancy, copy-back ratio, cumulative GC passes and flash programs);
this module keeps the sparkline-friendly :class:`Telemetry` view of
those series (`repro.metrics.ascii_chart.series_chart`) — enough to see
GC storms, queue build-ups and idle reclamation at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Telemetry:
    """Collected series, all aligned to ``times_us``.

    The list fields alias the underlying :class:`~repro.obs.sampler.
    RunStats` series (shared objects, not copies), so a Telemetry built
    from a live sampler always reflects the latest samples.
    """

    interval_us: float
    times_us: List[float] = field(default_factory=list)
    min_free_blocks: List[int] = field(default_factory=list)
    total_free_blocks: List[int] = field(default_factory=list)
    outstanding: List[int] = field(default_factory=list)
    gc_passes: List[int] = field(default_factory=list)
    flash_programs: List[int] = field(default_factory=list)

    @classmethod
    def from_run_stats(cls, stats) -> "Telemetry":
        """View over a :class:`repro.obs.sampler.RunStats` (aliased lists)."""
        return cls(
            interval_us=stats.interval_us,
            times_us=stats.times_us,
            min_free_blocks=stats.min_free_blocks,
            total_free_blocks=stats.total_free_blocks,
            outstanding=stats.queue_depth,
            gc_passes=stats.gc_passes,
            flash_programs=stats.flash_programs,
        )

    def series(self) -> Dict[str, List[float]]:
        return {
            "min_free_blocks": self.min_free_blocks,
            "total_free_blocks": self.total_free_blocks,
            "outstanding": self.outstanding,
            "gc_passes": self.gc_passes,
            "flash_programs": self.flash_programs,
        }

    def render(self, title: str = "device telemetry") -> str:
        from repro.metrics.ascii_chart import series_chart

        return series_chart(self.series(), title=title)
