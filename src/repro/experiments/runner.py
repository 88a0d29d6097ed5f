"""Run one (FTL, trace, configuration) simulation and gather metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.controller.device import SimulatedSSD
from repro.experiments.config import ExperimentConfig
from repro.metrics.sdrpp import sdrpp
from repro.metrics.wear import WearStats, wear_stats
from repro.obs.tracebus import BUS
from repro.traces.model import TraceRequest, WorkloadSpec
from repro.traces.stream import io_requests, stream_workload


@dataclass
class SimulationResult:
    ftl: str
    trace: str
    mean_response_ms: float
    steady_response_ms: float
    read_response_ms: float
    write_response_ms: float
    p99_response_ms: float
    sdrpp: float
    #: per-plane op counts, plain ints (FlashCounters.as_dict order)
    plane_ops: List[int]
    num_requests: int
    host_pages_written: int
    host_pages_read: int
    gc_invocations: int
    gc_passes: int
    gc_moved_pages: int
    gc_copyback_moves: int
    gc_controller_moves: int
    gc_wasted_pages: int
    gc_translation_updates: int
    erases: int
    copybacks: int
    flash_reads: int
    flash_programs: int
    cmt_hit_ratio: Optional[float]
    wear: WearStats
    sim_duration_s: float
    wall_time_s: float
    extras: dict = field(default_factory=dict)

    @property
    def write_amplification(self) -> float:
        """(flash programs + copy-backs + wasted pages) / host pages."""
        if self.host_pages_written == 0:
            return 0.0
        total = self.flash_programs + self.copybacks + self.gc_wasted_pages
        return total / self.host_pages_written


def _steady_ms(response_us: List[float]) -> float:
    """Mean response over the detected steady-state region (ms)."""
    from repro.experiments.steady_state import steady_mean

    if not response_us:
        return 0.0
    return steady_mean(response_us) / 1000.0


def run_simulation(
    trace: Iterable[TraceRequest],
    config: ExperimentConfig,
    *,
    trace_name: str = "trace",
    trace_path: Optional[str] = None,
    stats_interval_us: Optional[float] = None,
    sanitize: bool = False,
    faults=None,
    crash_at_us: Optional[float] = None,
    queue_depth: Optional[int] = None,
    probes: Optional[Sequence] = None,
    tenancy=None,
) -> SimulationResult:
    """Replay a trace through a freshly built (and preconditioned) SSD.

    ``trace_path`` records the measured portion of the run (after
    preconditioning) as Chrome trace-event JSON for Perfetto;
    ``stats_interval_us`` attaches the periodic snapshot sampler and
    folds its scalar digest into ``result.extras['run_stats']``;
    ``sanitize`` runs the whole simulation under the runtime invariant
    checker (see :mod:`repro.lint.sanitizer`) and folds its counter
    report into ``result.extras['sanitizer']``;
    ``faults`` is a :class:`repro.faults.FaultConfig` enabling
    deterministic fault injection (``result.extras['faults']``);
    ``crash_at_us`` power-fails the device at that simulated time,
    recovers it, then replays the rest of the trace on the recovered
    device (``result.extras['crash']``);
    ``probes`` is a sequence of TraceBus subscribers (such as
    :class:`repro.obs.parallelism.ParallelismProbe`) subscribed for the
    measured run only (after preconditioning, like the trace writer);
    the caller reads them after the run.

    The trace is consumed lazily: page-aligned by
    :func:`repro.traces.stream.io_requests` and admitted through
    :meth:`SimulatedSSD.run_stream`'s window (bounded by
    ``queue_depth`` when given), so multi-million-request traces run in
    bounded memory.  Arrivals must be time-ordered; an earlier arrival
    than its predecessor raises
    :class:`repro.controller.controller.StreamOrderError`.
    ``result.extras['stream']`` reports the queue depth, the peak number
    of requests in flight and whether the stats reservoir still holds
    every response.  ``steady_response_ms`` is the MSER-truncated mean
    while it does, and the overall mean once it has evicted (longer
    traces).  With ``crash_at_us``, :meth:`SimulatedSSD.run_with_crash`
    splits the trace at the crash instant: requests in flight are lost
    with the power cut, and the rest — the pre-crash requests the
    window had not admitted, then every later one — replays on the
    recovered device.
    """
    wall_start = time.perf_counter()  # dl: disable=DL101 — host wall-time metric, not sim state
    ssd = SimulatedSSD(
        config.geometry,
        config.timing,
        ftl=config.ftl,
        stats_interval_us=stats_interval_us,
        sanitize=sanitize,
        faults=faults,
        **config.build_kwargs(),
    )
    if config.precondition_fill:
        ssd.precondition(config.precondition_fill)

    extras: dict = {}
    tenant_fleet = None
    if tenancy is not None:
        # Multi-tenant replay: ``trace`` is ignored — the tenant
        # streams come from the model, already translated into
        # device LPNs and merged by the DRR scheduler.
        if crash_at_us is not None:
            raise ValueError("tenancy does not compose with crash_at_us")
        from repro.tenancy.scheduler import drr_merge
        from repro.tenancy.service import build_tenancy

        tenant_fleet = build_tenancy(config.geometry, tenancy)
        tenant_fleet.router.attach(ssd.controller)
        requests = drr_merge(tenant_fleet.queues)
    else:
        requests = io_requests(trace, config.geometry)

    def _drive() -> float:
        if crash_at_us is None:
            return ssd.run_stream(requests, queue_depth=queue_depth)
        extras["crash"], rest = ssd.run_with_crash(
            requests, crash_at_us, queue_depth=queue_depth
        )
        # Arrivals now in the past are admitted at the recovery clock.
        return ssd.run_stream(rest, queue_depth=queue_depth)

    # Subscribe probes after preconditioning (same reasoning as the
    # trace writer below: score the measured run, not the bulk fill).
    for probe in probes or ():
        BUS.subscribe(probe)
    try:
        if trace_path is not None:
            from repro.obs.chrome_trace import ChromeTraceWriter

            # Attach after preconditioning so the trace shows the measured
            # run, not the bulk fill.
            with ChromeTraceWriter(trace_path).recording():
                end = _drive()
        else:
            end = _drive()
    finally:
        for probe in probes or ():
            BUS.unsubscribe(probe)
        if tenant_fleet is not None:
            tenant_fleet.router.detach(ssd.controller)
    if tenant_fleet is not None:
        from repro.tenancy.stats import jain_index

        shares = tenant_fleet.router.completed_page_shares()
        weights = [q.weight for q in tenant_fleet.queues]
        extras["tenants"] = {
            "summaries": tenant_fleet.router.summaries(),
            "completed_page_shares": shares,
            "fairness_jain": jain_index(
                [s / w for s, w in zip(shares, weights)]
            ),
        }

    ftl = ssd.ftl
    stats = ssd.stats
    counters = ssd.counters
    cmt_hit = None
    if hasattr(ftl, "cmt"):
        cmt_hit = ftl.cmt.stats.hit_ratio

    # Until its first eviction the reservoir holds every response time
    # in completion order, the series the steady-state detector windows
    # over; past that only the overall (exact Welford) mean is left.
    if stats.reservoir.exact:
        steady_response_ms = _steady_ms(stats.reservoir.values)
    else:
        steady_response_ms = stats.mean_response_ms()
    read_response_ms = stats.reads.mean / 1000.0 if stats.reads.count else 0.0
    write_response_ms = stats.writes.mean / 1000.0 if stats.writes.count else 0.0
    extras["stream"] = {
        "queue_depth": queue_depth,
        "peak_outstanding": ssd.controller.peak_outstanding,
        "reservoir_exact": stats.reservoir.exact,
    }

    if ssd.run_stats is not None:
        extras["run_stats"] = ssd.run_stats.summary()
    if ssd.sanitizer is not None:
        extras["sanitizer"] = ssd.sanitizer.finalize()
    if ssd.faults is not None:
        extras["faults"] = ssd.faults.stats.as_dict()
        extras["faults"]["retried_requests"] = stats.retried_requests
        extras["faults"]["total_retries"] = stats.total_retries
    if stats.failed_requests:
        extras["failed_requests"] = stats.failed_requests

    return SimulationResult(
        extras=extras,
        ftl=config.ftl,
        trace=trace_name,
        mean_response_ms=stats.mean_response_ms(),
        steady_response_ms=steady_response_ms,
        read_response_ms=read_response_ms,
        write_response_ms=write_response_ms,
        p99_response_ms=stats.percentile_us(99) / 1000.0,
        sdrpp=sdrpp(counters),
        plane_ops=counters.as_dict()["plane_ops"],
        num_requests=stats.count,
        host_pages_written=stats.pages_written,
        host_pages_read=stats.pages_read,
        gc_invocations=ftl.gc_stats.invocations,
        gc_passes=ftl.gc_stats.passes,
        gc_moved_pages=ftl.gc_stats.moved_pages,
        gc_copyback_moves=ftl.gc_stats.copyback_moves,
        gc_controller_moves=ftl.gc_stats.controller_moves,
        gc_wasted_pages=ftl.gc_stats.wasted_pages,
        gc_translation_updates=ftl.gc_stats.translation_updates,
        erases=counters.erases,
        copybacks=counters.copybacks,
        flash_reads=counters.reads,
        flash_programs=counters.programs,
        cmt_hit_ratio=cmt_hit,
        wear=wear_stats(ftl.array),
        sim_duration_s=end / 1e6,
        wall_time_s=time.perf_counter() - wall_start,  # dl: disable=DL101 — host wall-time metric
    )


def run_workload(
    spec: WorkloadSpec,
    config: ExperimentConfig,
    *,
    queue_depth: Optional[int] = None,
    probes: Optional[Sequence] = None,
) -> SimulationResult:
    """Generate a synthetic workload and run it, in bounded memory
    (``queue_depth`` and ``probes`` as for :func:`run_simulation`)."""
    return run_simulation(
        stream_workload(spec), config, trace_name=spec.name,
        queue_depth=queue_depth, probes=probes,
    )
