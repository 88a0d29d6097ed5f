"""Schema coverage smoke: observe every declared TraceBus event live.

The static DL20x rules prove emit sites and consumers agree with the
registry in :mod:`repro.obs.schema`; this module closes the loop at
runtime.  It drives a battery of tiny seeded scenarios — one per
subsystem that owns events — with a recording subscriber attached,
then checks the observed ``(category, name)`` pairs against the
registry: every declared event must actually appear in a smoke trace
(modulo :data:`~repro.obs.schema.ALLOW_UNOBSERVED`), every observed
event must be declared, and (optionally) every event instance must
carry its declared payload.

Used by ``repro-sim schema --verify-coverage`` and the CI round-trip
step; ``tests/test_schema.py`` runs a trimmed scenario subset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.schema import CoverageReport, coverage, validate_event
from repro.obs.tracebus import BUS, TraceEvent

#: Cap on recorded payload problems (one bad emit site repeats a lot).
_MAX_PROBLEMS = 20


class EventRecorder:
    """Bus subscriber recording distinct event kinds and payload problems."""

    def __init__(self, *, validate: bool = True):
        self.validate = validate
        self.seen: Set[Tuple[str, str]] = set()
        self.problems: List[str] = []
        self.events = 0

    def __call__(self, event: TraceEvent) -> None:
        self.events += 1
        key = (event.category, event.name)
        # Validate one instance per kind: payload shape is fixed per
        # emit site, and per-event validation would dominate runtime.
        if key not in self.seen:
            self.seen.add(key)
            if self.validate and len(self.problems) < _MAX_PROBLEMS:
                self.problems.extend(validate_event(event))


def _mixed_workload(geometry, n, seed, *, trim_share=0.05, read_share=0.15, start_us=0.0):
    """Update-heavy traffic over a tight footprint: forces GC."""
    from repro.sim.request import IoOp, IoRequest

    rng = random.Random(seed)
    space = max(4, int(geometry.num_lpns * 0.55))
    requests, t = [], start_us
    for _ in range(n):
        t += rng.expovariate(1 / 400.0)
        lpn = rng.randrange(space)
        count = min(rng.choice((1, 1, 2, 3)), geometry.num_lpns - lpn)
        draw = rng.random()
        if draw < trim_share:
            op = IoOp.TRIM
        elif draw < trim_share + read_share:
            op = IoOp.READ
        else:
            op = IoOp.WRITE
        requests.append(IoRequest(t, lpn, count, op))
    return requests


def _sequential_workload(geometry, blocks, seed):
    """Block-aligned sequential streams (FAST switch/partial merges)."""
    from repro.sim.request import IoOp, IoRequest

    rng = random.Random(seed)
    ppb = geometry.pages_per_block
    requests, t = [], 0.0
    for _ in range(blocks):
        base = rng.randrange(max(1, geometry.num_lpns // ppb - 1)) * ppb
        # Full pass -> switch merge; a second partial pass over the
        # same block forces a partial merge of the sequential log.
        for cut in (ppb, ppb // 2):
            for offset in range(cut):
                t += 50.0
                requests.append(IoRequest(t, base + offset, 1, IoOp.WRITE))
    return requests


def _new_ssd(ftl: str, **kwargs):
    from repro.controller.device import SimulatedSSD
    from repro.experiments.scenario import tiny_geometry

    return SimulatedSSD(tiny_geometry(), ftl=ftl, **kwargs)


# ---------------------------------------------------------------------------
# Scenarios.  Each drives one subsystem's events; together they must
# cover the registry (minus ALLOW_UNOBSERVED).
# ---------------------------------------------------------------------------


def _scenario_dloop() -> None:
    """Core path: flash spans, array, DLOOP GC, sampler counters."""
    ssd = _new_ssd("dloop", stats_interval_us=5_000.0)
    ssd.precondition(0.7)  # bulk_fill + timeline_reset
    ssd.run(_mixed_workload(ssd.geometry, 1200, seed=11))
    ssd.verify()


def _scenario_dftl() -> None:
    """Translation cache: cmt hit/miss/dirty_evict + dftl GC migrate."""
    # Undersized CMT so evictions (including dirty ones) actually occur.
    ssd = _new_ssd("dftl", stats_interval_us=5_000.0, cmt_entries=16)
    ssd.precondition(0.7)
    ssd.run(_mixed_workload(ssd.geometry, 1200, seed=12))
    ssd.verify()


def _scenario_fast() -> None:
    """FAST log-block merges: switch, partial, full."""
    ssd = _new_ssd("fast")
    sequential = _sequential_workload(ssd.geometry, blocks=6, seed=13)
    ssd.run(sequential)
    after = sequential[-1].arrival_us + 100_000.0
    ssd.run(_mixed_workload(ssd.geometry, 900, seed=13, trim_share=0.0, start_us=after))
    ssd.verify()


def _scenario_multi_plane() -> None:
    """DLOOP-MP: multi-plane program + serialized data-in transfers."""
    ssd = _new_ssd("dloop-mp")
    ssd.run(_mixed_workload(ssd.geometry, 600, seed=14, trim_share=0.0))
    ssd.verify()


def _scenario_no_copyback() -> None:
    """Copy-back disabled: GC takes the inter-plane controller path."""
    ssd = _new_ssd("dloop-nocb")
    ssd.precondition(0.7)
    ssd.run(_mixed_workload(ssd.geometry, 900, seed=15, trim_share=0.0))
    ssd.verify()


def _scenario_faults() -> None:
    """Deterministic fault injection + wear-out retirement paths."""
    from repro.controller.device import SimulatedSSD
    from repro.flash.geometry import SSDGeometry

    # Extra spare blocks so retirement doesn't exhaust the free pool.
    geometry = SSDGeometry(
        channels=2,
        packages_per_channel=1,
        chips_per_package=1,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=24,
        pages_per_block=8,
        page_size=256,
        extra_blocks_percent=60.0,
    )
    ssd = SimulatedSSD(
        geometry,
        ftl="dloop",
        stats_interval_us=5_000.0,
        faults={
            "seed": 7,
            "program_fail_rate": 0.01,
            "erase_fail_rate": 0.005,
            "read_error_rate": 0.08,
            "read_uncorrectable_rate": 0.02,
            "program_fails_to_retire": 1,
        },
    )
    ssd.precondition(0.5)
    ssd.run(_mixed_workload(ssd.geometry, 1000, seed=16))


def _scenario_bad_blocks() -> None:
    """Factory bad blocks: mark_bad + the bad_blocks counter."""
    # Default factory_bad_rate (0.2%) is ~0 expected blocks on the tiny
    # array; raise it so mark_bad reliably fires.
    ssd = _new_ssd(
        "dloop",
        stats_interval_us=5_000.0,
        bad_blocks={"factory_bad_rate": 0.08, "seed": 3},
    )
    ssd.run(_mixed_workload(ssd.geometry, 400, seed=17, trim_share=0.0))
    ssd.verify()


def _scenario_background_gc() -> None:
    """Idle-time background GC passes."""
    from repro.sim.request import IoRequest

    ssd = _new_ssd("dloop", background_gc=True)
    ssd.precondition(0.8)
    requests = _mixed_workload(ssd.geometry, 600, seed=18, trim_share=0.0)
    # A long idle tail after the burst lets background GC run.
    last = requests[-1]
    requests.append(IoRequest(last.arrival_us + 2_000_000.0, 0, 1, last.op))
    ssd.run(requests)


def _scenario_stream() -> None:
    """Streamed admission: the stream high-water counter + the fused
    generator's per-chunk ``perf/batch_window`` announcements."""
    from repro.traces.model import KB, SizeMix, WorkloadSpec
    from repro.traces.stream import stream_io_requests

    ssd = _new_ssd("dloop", stats_interval_us=5_000.0)
    ssd.run_stream(iter(_mixed_workload(ssd.geometry, 400, seed=19)))
    ssd.verify()

    ssd = _new_ssd("dloop", stats_interval_us=5_000.0)
    spec = WorkloadSpec(
        name="smoke-stream",
        num_requests=400,
        write_fraction=0.7,
        request_rate_per_s=10_000.0,
        size_mix=SizeMix((256, 512), (0.7, 0.3)),
        footprint_bytes=int(ssd.geometry.capacity_bytes * 0.5),
        zipf_theta=0.9,
        chunk_bytes=1 * KB,
        align_bytes=256,
        seed=19,
    )
    ssd.run_stream(stream_io_requests(spec, ssd.geometry, chunk_requests=128))
    ssd.verify()


def _scenario_crash() -> None:
    """Mid-run power loss + recovery."""
    ssd = _new_ssd("dloop")
    requests = _mixed_workload(ssd.geometry, 600, seed=20, trim_share=0.0)
    crash_at = requests[len(requests) // 2].arrival_us
    ssd.run_with_crash(requests, crash_at_us=crash_at)


def _scenario_write_buffer() -> None:
    """DRAM write buffer: the ``wb/flush`` barrier marker."""
    ssd = _new_ssd("dloop", write_buffer_pages=8)
    ssd.precondition(0.6)
    ssd.run(_mixed_workload(ssd.geometry, 400, seed=21, trim_share=0.0))
    # Writes are still buffered after the burst; the explicit flush
    # emits the barrier event.
    ssd.flush()
    ssd.verify()


def _scenario_torture() -> None:
    """Torture instrumentation: ``torture/armed`` + ``crash_fired`` +
    the oracle verdict of one crash replay (and generation-stamped
    ``array/program`` payloads along the way)."""
    from repro.torture import CampaignConfig, TortureCampaign

    campaign = TortureCampaign(CampaignConfig(
        ftls=("dloop",), workloads=("build",), num_requests=6,
    ))
    cell = campaign.cells()[0]
    campaign.run_point(cell, ("program", 5))


def _scenario_tenancy() -> None:
    """Multi-tenant admission: ``tenant/admit`` + ``slo_violation`` +
    the per-tenant ``counter/tenants`` sampler track."""
    from repro.tenancy import TenantSpec, TrafficModel, run_tenant_workload

    ssd = _new_ssd("dloop", stats_interval_us=5_000.0)
    ssd.precondition(0.5)
    # A 1 us p99 target is unmeetable by design — the violation event
    # must fire during the smoke run.
    model = TrafficModel(
        tenants=(
            TenantSpec("smoke-a", "financial1", slo_p99_ms=0.001),
            TenantSpec("smoke-b", "webserver"),
        ),
        total_requests=300,
        base_seed=22,
    )
    run_tenant_workload(ssd, model, queue_depth=8)
    ssd.verify()


#: name -> scenario, in run order.
SCENARIOS: Dict[str, Callable[[], None]] = {
    "dloop": _scenario_dloop,
    "dftl": _scenario_dftl,
    "fast": _scenario_fast,
    "multi-plane": _scenario_multi_plane,
    "no-copyback": _scenario_no_copyback,
    "faults": _scenario_faults,
    "bad-blocks": _scenario_bad_blocks,
    "background-gc": _scenario_background_gc,
    "stream": _scenario_stream,
    "crash": _scenario_crash,
    "write-buffer": _scenario_write_buffer,
    "torture": _scenario_torture,
    "tenancy": _scenario_tenancy,
}


@dataclass
class SmokeResult:
    """Coverage + payload validity over the scenarios that ran."""

    report: CoverageReport
    scenarios: List[str]
    events: int
    #: validate_event problems (one sample event per kind), capped.
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok and not self.problems


def run_coverage_smoke(
    scenarios: Optional[Sequence[str]] = None, *, validate: bool = True
) -> SmokeResult:
    """Run scenarios with a recorder attached; score registry coverage.

    ``scenarios`` selects a subset by name (default: all).  With a
    subset, missing events are still reported — callers selecting a
    subset should assert on ``report.undeclared``/``problems`` only.
    """
    chosen = list(SCENARIOS) if scenarios is None else list(scenarios)
    unknown = [name for name in chosen if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown}; known: {list(SCENARIOS)}")
    recorder = EventRecorder(validate=validate)
    BUS.subscribe(recorder)
    try:
        for name in chosen:
            SCENARIOS[name]()
    finally:
        BUS.unsubscribe(recorder)
    return SmokeResult(
        report=coverage(recorder.seen),
        scenarios=chosen,
        events=recorder.events,
        problems=recorder.problems,
    )
