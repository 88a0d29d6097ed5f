"""Periodic run-statistics sampler driven by the simulation clock.

Samples device gauges on a fixed simulated-time grid (plus the idle
edges, so bursts are never missed): host queue depth, free-block count
per plane, CMT occupancy, and the cumulative copy-back ratio, alongside
the cumulative GC-pass and flash-program counts.  Each sample is
written once, to :class:`RunStats` (aligned time series;
``repro.metrics.ascii_chart.series_chart(stats.series())`` renders
them as sparklines), and, whenever a trace is recording, to the
:class:`~repro.obs.tracebus.TraceBus` as counter samples that the
Chrome-trace exporter turns into Perfetto counter tracks (queue depth,
free blocks, copy-back ratio).

Sampling never perturbs results: it only reads state, and its engine
events re-arm solely while host work remains pending, so it cannot keep
a finished simulation alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.tracebus import BUS


@dataclass
class RunStats:
    """Collected series, all aligned to ``times_us``."""

    interval_us: float
    times_us: List[float] = field(default_factory=list)
    queue_depth: List[int] = field(default_factory=list)
    min_free_blocks: List[int] = field(default_factory=list)
    total_free_blocks: List[int] = field(default_factory=list)
    plane_free_blocks: List[List[int]] = field(default_factory=list)
    cmt_entries: List[int] = field(default_factory=list)
    copyback_ratio: List[float] = field(default_factory=list)
    gc_passes: List[int] = field(default_factory=list)
    flash_programs: List[int] = field(default_factory=list)
    bad_blocks: List[int] = field(default_factory=list)
    fault_events: List[int] = field(default_factory=list)
    peak_outstanding: List[int] = field(default_factory=list)
    failed_requests: List[int] = field(default_factory=list)
    retried_requests: List[int] = field(default_factory=list)
    total_retries: List[int] = field(default_factory=list)
    lost_pages: List[int] = field(default_factory=list)

    @property
    def samples(self) -> int:
        return len(self.times_us)

    def series(self) -> Dict[str, List[float]]:
        """The headline per-sample series (no per-plane vectors)."""
        return {
            "queue_depth": self.queue_depth,
            "min_free_blocks": self.min_free_blocks,
            "total_free_blocks": self.total_free_blocks,
            "cmt_entries": self.cmt_entries,
            "copyback_ratio": self.copyback_ratio,
            "gc_passes": self.gc_passes,
            "flash_programs": self.flash_programs,
            "bad_blocks": self.bad_blocks,
            "fault_events": self.fault_events,
            "peak_outstanding": self.peak_outstanding,
            "failed_requests": self.failed_requests,
            "retried_requests": self.retried_requests,
            "total_retries": self.total_retries,
            "lost_pages": self.lost_pages,
        }

    def summary(self) -> dict:
        """Scalar digest (JSON/CSV-friendly; used in result extras)."""
        if not self.times_us:
            return {"samples": 0}
        return {
            "samples": self.samples,
            "span_us": self.times_us[-1] - self.times_us[0],
            "max_queue_depth": max(self.queue_depth),
            "low_water_free_blocks": min(self.min_free_blocks),
            "final_copyback_ratio": self.copyback_ratio[-1],
            "final_cmt_entries": self.cmt_entries[-1],
            "peak_outstanding": self.peak_outstanding[-1],
            "failed_requests": self.failed_requests[-1],
        }


class StatsSampler:
    """Attaches to a running simulation and records :class:`RunStats`.

    The sampler arms one engine event per interval while the simulation
    still has work queued, and additionally samples on every idle edge
    (outstanding dropping to zero) so short bursts between grid points
    are captured.  This is the component behind
    ``repro-sim simulate --stats-interval-ms N`` and
    ``SimulatedSSD(stats_interval_us=...)``.
    """

    def __init__(self, engine, ftl, controller, interval_us: float = 50_000.0):
        if interval_us <= 0:
            raise ValueError("interval_us must be > 0")
        self.engine = engine
        self.ftl = ftl
        self.controller = controller
        self.stats = RunStats(interval_us=interval_us)
        self._num_planes = ftl.geometry.num_planes
        self._armed = False
        # sample on every idle edge too, so bursts are never missed
        controller.on_idle.append(self.sample_now)
        self._arm()

    def _arm(self) -> None:
        if self._armed:
            return
        self._armed = True
        self.engine.schedule_after(self.stats.interval_us, self._tick)

    def rearm(self) -> None:
        """Restart sampling after the armed tick was dropped externally
        (``Engine.clear_pending`` on a simulated power loss cancels it
        without running ``_tick``)."""
        self._armed = False
        self._arm()

    def _tick(self) -> None:
        self._armed = False
        self.sample_now()
        # keep sampling only while the simulation still has work queued
        if self.engine.pending > 0:
            self._arm()

    def sample_now(self) -> None:
        """Take one snapshot of every gauge at the current sim time."""
        array = self.ftl.array
        free = [array.free_block_count(p) for p in range(self._num_planes)]
        counters = self.ftl.clock.counters
        copyback_ratio = counters.copyback_ratio
        depth = self.controller.outstanding
        cmt = len(self.ftl.cmt) if hasattr(self.ftl, "cmt") else 0
        now = self.engine.now
        bad_blocks = array.bad_block_count()  # O(1): live counter
        faults = self.ftl.faults
        if faults is not None:
            fstats = faults.stats
            fault_events = (
                fstats.program_failures
                + fstats.erase_failures
                + fstats.correctable_reads
                + fstats.uncorrectable_reads
            )
        else:
            fault_events = 0

        stats = self.stats
        stats.times_us.append(now)
        stats.queue_depth.append(depth)
        stats.min_free_blocks.append(min(free))
        stats.total_free_blocks.append(sum(free))
        stats.plane_free_blocks.append(free)
        stats.cmt_entries.append(cmt)
        stats.copyback_ratio.append(copyback_ratio)
        stats.gc_passes.append(self.ftl.gc_stats.passes)
        stats.flash_programs.append(counters.programs)
        stats.bad_blocks.append(bad_blocks)
        stats.fault_events.append(fault_events)
        controller = self.controller
        request_stats = controller.stats
        stats.peak_outstanding.append(controller.peak_outstanding)
        stats.failed_requests.append(request_stats.failed_requests)
        stats.retried_requests.append(request_stats.retried_requests)
        stats.total_retries.append(request_stats.total_retries)
        stats.lost_pages.append(request_stats.lost_pages)

        bus = BUS
        if bus.enabled:
            bus.counter("queue_depth", now, {"outstanding": depth})
            bus.counter("free_blocks", now, {"min": min(free), "total": sum(free)})
            bus.counter("copyback_ratio", now, {"ratio": copyback_ratio})
            if hasattr(self.ftl, "cmt"):
                bus.counter("cmt_entries", now, {"cached": cmt})
            bus.counter("bad_blocks", now, {"retired": bad_blocks})
            bus.counter("stream", now, {"peak_outstanding": controller.peak_outstanding})
            if (request_stats.failed_requests or request_stats.retried_requests
                    or request_stats.lost_pages):
                # Only once an error path has fired — clean-run traces
                # keep their track list unchanged.
                bus.counter(
                    "host_errors", now,
                    {"failed": request_stats.failed_requests,
                     "retried": request_stats.retried_requests,
                     "retries": request_stats.total_retries,
                     "lost_pages": request_stats.lost_pages},
                )
            if faults is not None:
                bus.counter(
                    "faults", now,
                    {"program_fails": fstats.program_failures,
                     "erase_fails": fstats.erase_failures,
                     "read_retries": fstats.read_retries,
                     "lost_pages": fstats.uncorrectable_reads},
                )
            tenants = controller.tenants
            if tenants is not None:
                # One sample per tenant lane; single-tenant traces keep
                # their track list unchanged (tenants is None).
                for lane in tenants.lanes:
                    bus.counter(
                        "tenants", now,
                        {"tenant": lane.namespace.nsid,
                         "completed_pages": lane.completed_pages,
                         "slo_violations": lane.slo_violations,
                         "failed": lane.failed_requests},
                    )
