"""One repetition of one workload, in a fresh interpreter.

``python -m perfbench.rep '<json arguments>'`` builds the device and
the request source (set-up, timed apart), runs the timed region — the
``run_stream``/``run`` call only — checks the outputs and prints one
JSON object.  A fresh interpreter per repetition gives an honest
``ru_maxrss`` and a clean process-wide TraceBus.

It drives only public entry points of ``repro``.  In a *traced*
repetition it additionally sets instance attributes that wrap the calls
crossing each layer boundary (see :mod:`perfbench.tracer`).
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import traceback
from collections import deque
from itertools import islice
from time import perf_counter, process_time
from typing import Iterator, Optional

from repro import SimulatedSSD
from repro.experiments.config import scaled_geometry
from repro.lint.sanitizer import SimSanitizer
from repro.metrics.sdrpp import sdrpp
from repro.metrics.streaming import StreamingRequestStats
from repro.obs.tracebus import BUS
from repro.perf.fingerprint import engine_fingerprint, ftl_fingerprint
from repro.tenancy import (
    TenantSpec,
    TrafficModel,
    build_namespaces,
    build_tenancy,
    drr_merge,
    jain_index,
)
from repro.traces.stream import stream_io_requests
from repro.traces.synthetic import make_workload

from perfbench.tracer import Tracer
from perfbench.workloads import (
    FOOTPRINT_SHARE,
    LADDER,
    PRECONDITION_FILL,
    QUEUE_DEPTH,
    TENANT_SLO_P99_MS,
    TENANTS,
    WORKLOADS,
    Workload,
)

_FLASH_METHODS = (
    "read_page", "program_page", "erase_block", "copy_back",
    "inter_plane_copy", "read_pages", "program_pages",
)
#: spans written verbatim to the spans file (the rest is aggregated)
_SPANS_HEAD = 2000


def _persona_source(w: Workload, geometry, total: int, seed: int) -> Iterator:
    spec = make_workload(
        w.persona, total, int(geometry.capacity_bytes * FOOTPRINT_SHARE)
    )
    spec = dataclasses.replace(
        spec,
        seed=spec.seed ^ seed,
        request_rate_per_s=spec.request_rate_per_s / w.rate_div,
    )
    return stream_io_requests(spec, geometry)


def _tenant_model(w: Workload, total: int, seed: int, tracer: Optional[Tracer]):
    cls = TrafficModel
    if tracer is not None:

        class TracedModel(TrafficModel):
            # build_tenancy asks the model for each tenant's stream:
            # the one public seam between trace generation and DRR.
            def tenant_stream(self, index, namespace, page_size):
                stream = super().tenant_stream(index, namespace, page_size)
                return tracer.wrap_iter("traces", stream)

        cls = TracedModel
    return cls(
        tenants=tuple(
            TenantSpec(name, w.persona, weight=weight, slo_p99_ms=TENANT_SLO_P99_MS)
            for name, weight in TENANTS
        ),
        total_requests=total,
        footprint_fill=FOOTPRINT_SHARE,
        base_seed=TrafficModel.base_seed ^ seed,
    )


def _drain(w: Workload, geometry, total: int, seed: int) -> dict:
    """Exhaust a second copy of the request source on its own."""
    if w.admission == "tenants":
        model = _tenant_model(w, total, seed, None)
        spaces = build_namespaces(geometry.num_lpns, [name for name, _ in TENANTS])
        streams = [
            model.tenant_stream(i, ns, geometry.page_size)
            for i, ns in enumerate(spaces)
        ]
    else:
        streams = [_persona_source(w, geometry, total, seed)]
    start = perf_counter()
    # a one-slot deque consumes an iterator at C speed and keeps its last item
    tails = [deque(stream, maxlen=1) for stream in streams]
    drain_s = perf_counter() - start
    return {
        "drain_s": drain_s,
        "last_arrival_us": max(tail[0].arrival_us for tail in tails if tail),
    }


def _wrap_layers(tracer: Tracer, ssd, tenancy, sanitizer, streamed: bool):
    """Set the instance attributes that record a span at each layer boundary.

    Returns the sanitizer's traced TraceBus subscriber (or None) and the
    cell accumulating the seconds spent in its sweeps.
    """
    if streamed and not isinstance(ssd.controller.stats, StreamingRequestStats):
        # run_stream would install it on entry; do it now so that its
        # observe() can be wrapped.
        ssd.controller.stats = StreamingRequestStats()
    stats = ssd.controller.stats
    stats.observe = tracer.wrap("metrics", stats.observe)
    stats.observe_error = tracer.wrap("metrics", stats.observe_error)
    ftl = ssd.ftl
    for method in ("write_pages", "read_pages", "trim_pages"):
        setattr(ftl, method, tracer.wrap("ftl", getattr(ftl, method)))
    for method in _FLASH_METHODS:
        setattr(ftl.clock, method, tracer.wrap("flash", getattr(ftl.clock, method)))
    if tenancy is not None:
        router = tenancy.router
        router.on_complete = tracer.wrap("tenancy", router.on_complete)
    sweep_s = [0.0]
    if sanitizer is None:
        return None, sweep_s
    check_now = sanitizer.check_now

    def timed_check_now() -> None:
        start = perf_counter()
        try:
            check_now()
        finally:
            sweep_s[0] += perf_counter() - start

    sanitizer.check_now = tracer.wrap("sanitizer", timed_check_now)
    return tracer.wrap("sanitizer", sanitizer), sweep_s


def _layer_counts(ssd, tenancy, duration_us: float, events: int,
                  cmt_hits: int, cmt_misses: int, sanitizer_events: int) -> dict:
    """Per-layer counts of the timed region, from public counters."""
    counters = ssd.counters
    gc = ssd.ftl.gc_stats
    busy = max(duration_us, 1e-9)
    lookups = cmt_hits + cmt_misses
    counts = {
        "sim_controller.events": events,
        "sim_controller.peak_outstanding": ssd.controller.peak_outstanding,
        "ftl.cmt_hit_ratio": cmt_hits / lookups if lookups else 0.0,
        "ftl.cmt_misses": cmt_misses,
        "ftl.gc_invocations": gc.invocations,
        "ftl.gc_passes": gc.passes,
        "ftl.gc_moved_pages": gc.moved_pages,
        "ftl.gc_wasted_pages": gc.wasted_pages,
        "ftl.gc_translation_updates": gc.translation_updates,
        "ftl.gc_erased_blocks": gc.erased_blocks,
        "flash.reads": counters.reads,
        "flash.programs": counters.programs,
        "flash.erases": counters.erases,
        "flash.copybacks": counters.copybacks,
        "flash.interplane_copies": counters.interplane_copies,
        "flash.copyback_share": counters.copyback_ratio,
        "flash.sdrpp": sdrpp(counters),
        "flash.plane_busy_max_share": max(counters.plane_busy_us) / busy,
        "flash.channel_busy_max_share": max(counters.channel_busy_us) / busy,
        "tenancy.fairness_jain": 0.0,
        "tenancy.slo_violation_share": 0.0,
        "sanitizer.events": sanitizer_events,
    }
    if tenancy is not None:
        shares = tenancy.router.completed_page_shares()
        counts["tenancy.fairness_jain"] = jain_index(
            [share / q.weight for share, q in zip(shares, tenancy.queues)]
        )
        violations = sum(lane.slo_violations for lane in tenancy.router.lanes)
        counts["tenancy.slo_violation_share"] = violations / max(1, ssd.stats.count)
    return counts


def run_rep(name: str, seed: int, scale: float, variant: str, traced: bool,
            spans_path: Optional[str]) -> dict:
    w = WORKLOADS[name]
    ssd_kwargs, observer = LADDER[variant] if variant else ({}, w.observer)
    tracer = Tracer() if traced else None
    warmup = int(w.warmup * scale)
    requested = total = warmup + max(len(TENANTS), int(w.requests * scale))

    # ---- set-up: device, precondition, request source, warm-up ------------
    setup_start = perf_counter()
    geometry = scaled_geometry(8, scale=1 / 32)
    ssd = SimulatedSSD(geometry, ftl=w.ftl, **ssd_kwargs)
    ssd.precondition(PRECONDITION_FILL)
    tenancy = None
    if w.admission == "tenants":
        model = _tenant_model(w, total, seed, tracer)
        # the popularity split rounds per tenant
        total = sum(model.tenant_request_counts())
        tenancy = build_tenancy(geometry, model)
        source = drr_merge(tenancy.queues)
        if tracer is not None:
            source = tracer.wrap_iter("tenancy", source)
    else:
        source = _persona_source(w, geometry, total, seed)
        if tracer is not None:
            source = tracer.wrap_iter("traces", source)
    if w.admission == "materialized":
        requests = list(source)

        def run() -> float:
            return ssd.run(requests)
    else:
        def run() -> float:
            return ssd.run_stream(source, queue_depth=QUEUE_DEPTH)

    if warmup:
        ssd.run_stream(islice(source, warmup), queue_depth=QUEUE_DEPTH)
        ssd.reset_measurements()
    timed = total - warmup
    sanitizer = None
    subscriber = None
    if observer == "sanitize":
        # What SimulatedSSD(sanitize=True) wires up, after the warm-up:
        # the shadow model is seeded from the array's state now.
        sanitizer = ssd.sanitizer = SimSanitizer(ssd.ftl)
        subscriber = sanitizer
    elif observer == "tracebus":
        def subscriber(event) -> None:
            pass
    setup_s = perf_counter() - setup_start

    sweep_s = [0.0]
    if tracer is not None:
        traced_subscriber, sweep_s = _wrap_layers(
            tracer, ssd, tenancy, sanitizer, w.admission != "materialized")
        subscriber = traced_subscriber or subscriber
    if tenancy is not None:
        tenancy.router.attach(ssd.controller)
    if subscriber is not None:
        BUS.subscribe(subscriber)

    # ---- timed region ------------------------------------------------------
    sim_start_us = ssd.engine.now
    events_before = ssd.engine.events_processed
    cmt = getattr(ssd.ftl, "cmt", None)
    cmt_before = (cmt.stats.hits, cmt.stats.misses) if cmt is not None else (0, 0)
    cpu_start = process_time()
    # the same clock pair with and without the tracer: trace.coverage
    # compares the spans against a wall time the tracer did not take
    wall_start = perf_counter()
    end_us = tracer.root(run) if tracer is not None else run()
    wall_s = perf_counter() - wall_start
    cpu_s = process_time() - cpu_start
    # before the checks below allocate anything
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- results and checks ------------------------------------------------
    if subscriber is not None:
        BUS.unsubscribe(subscriber)
    stats = ssd.stats
    counters = ssd.counters
    duration_us = end_us - sim_start_us
    fingerprint = ftl_fingerprint(ssd.ftl, end_us)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mb": rss_mb,
        "submitted": timed,
        "completed": stats.count,
        "pages": stats.pages_read + stats.pages_written + stats.pages_trimmed,
        "gc_moved_pages": ssd.ftl.gc_stats.moved_pages,
        "ftl_fingerprint": fingerprint,
        "fingerprint": {**fingerprint, **engine_fingerprint(ssd.engine)},
        "sim": {
            "sim_mean_response_ms": stats.mean_response_ms(),
            "sim_write_amplification": (
                (counters.programs + counters.copybacks
                 + ssd.ftl.gc_stats.wasted_pages) / stats.pages_written
                if stats.pages_written else 0.0
            ),
            "p99_response_ms": stats.percentile_us(99) / 1000.0,
            "duration_s": duration_us / 1e6,
            "read_mean_ms": _lane_mean_ms(stats, "reads", "read_response_us"),
            "write_mean_ms": _lane_mean_ms(stats, "writes", "write_response_us"),
        },
    }
    checks = {"all_completed": stats.count == timed}
    try:
        ssd.verify()
        checks["verify"] = True
    except Exception:  # noqa: BLE001 - any integrity failure fails the check
        checks["verify"] = False
        result["verify_error"] = traceback.format_exc()
    sanitizer_events = 0
    if sanitizer is not None:
        report = sanitizer.finalize()
        checks["sanitizer_clean"] = report["violations"] == 0
        sanitizer_events = report["events_checked"]
    if tracer is not None:
        checks["spans_nested"] = tracer.misnested() == 0
    result["checks"] = checks

    if tracer is not None:
        cmt_now = (cmt.stats.hits, cmt.stats.misses) if cmt is not None else (0, 0)
        layers = tracer.summary()
        drain = _drain(w, geometry, requested, seed)
        result["layer_data"] = {
            "counts": _layer_counts(
                ssd, tenancy, duration_us,
                ssd.engine.events_processed - events_before,
                cmt_now[0] - cmt_before[0], cmt_now[1] - cmt_before[1],
                sanitizer_events),
            "layers": layers,
            "check_now_s": sweep_s[0],
            "drain_us_per_request": drain["drain_s"] / total * 1e6,
            "backlog_s": (end_us - drain["last_arrival_us"]) / 1e6,
        }
        if spans_path:
            with open(spans_path, "w", encoding="ascii") as handle:
                json.dump(
                    {
                        "workload": name,
                        "seed": seed,
                        "root_wall_s": wall_s,
                        "spans_recorded": len(tracer.layer),
                        "layers": layers,
                        "head": tracer.head(_SPANS_HEAD),
                    },
                    handle,
                    indent=1,
                )
                handle.write("\n")
    return result


def _lane_mean_ms(stats, streaming_lane: str, list_lane: str) -> float:
    """Mean response of reads or writes from either stats implementation."""
    if isinstance(stats, StreamingRequestStats):
        lane = getattr(stats, streaming_lane)
        return lane.mean / 1000.0 if lane.count else 0.0
    values = getattr(stats, list_lane)
    return sum(values) / len(values) / 1000.0 if values else 0.0


def main(argv) -> int:
    args = json.loads(argv[0])
    try:
        result = run_rep(**args)
    except Exception:  # noqa: BLE001 - a repetition that raises is a failed one
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
