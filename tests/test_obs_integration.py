"""End-to-end observability: tracing and sampling a real DLOOP run.

Tracing must be a pure observer — with a Chrome-trace writer and the
stats sampler attached, a run produces bit-identical results to the
same run without them — while the trace captures flash command spans
on plane/channel rows, GC invocations, copy-back migrations and
queue-depth counters.
"""

import io
import json
import random

import pytest

from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.obs.chrome_trace import PID_CHANNELS, PID_PLANES, ChromeTraceWriter
from repro.obs.tracebus import BUS
from repro.sim.request import IoOp, IoRequest


@pytest.fixture(autouse=True)
def clean_global_bus():
    yield
    BUS.clear()


def update_heavy_workload(geometry, n=1500, seed=21):
    """Random updates over a tight footprint: forces GC and copy-back."""
    rng = random.Random(seed)
    space = int(geometry.num_lpns * 0.55)
    requests, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(1 / 400.0)
        lpn = rng.randrange(space)
        count = min(rng.choice((1, 1, 2)), geometry.num_lpns - lpn)
        op = IoOp.WRITE if rng.random() < 0.85 else IoOp.READ
        requests.append(IoRequest(t, lpn, count, op))
    return requests


def run_dloop(geometry, *, trace=False, stats_interval_us=None):
    """One preconditioned DLOOP run; returns (ssd, trace payload or None)."""
    ssd = SimulatedSSD(geometry, ftl="dloop", stats_interval_us=stats_interval_us)
    ssd.precondition(0.7)
    workload = update_heavy_workload(geometry)
    if trace:
        sink = io.StringIO()
        with ChromeTraceWriter(sink).recording():
            ssd.run(workload)
        payload = json.loads(sink.getvalue())
    else:
        payload = None
        ssd.run(workload)
    ssd.verify()
    return ssd, payload


def fingerprint(ssd):
    """Everything that must be bit-identical with observability on/off."""
    return {
        "response_us": list(ssd.stats.reservoir.values),
        "counters": ssd.counters.as_dict(),
        "gc_passes": ssd.ftl.gc_stats.passes,
        "gc_moved": ssd.ftl.gc_stats.moved_pages,
        "gc_copyback": ssd.ftl.gc_stats.copyback_moves,
        "mapped": sorted(int(l) for l in ssd.ftl.mapped_lpns()),
    }


@pytest.fixture(scope="module")
def module_geometry():
    """Same shape as ``small_geometry``, module-scoped so the traced
    reference run below is simulated once."""
    return SSDGeometry(
        channels=2,
        packages_per_channel=1,
        chips_per_package=1,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=8,
        page_size=256,
        extra_blocks_percent=25.0,
    )


@pytest.fixture(scope="module")
def traced_run(module_geometry):
    assert BUS.subscriber_count == 0  # nothing leaked into the reference run
    return run_dloop(module_geometry, trace=True, stats_interval_us=25_000.0)


def test_workload_actually_forces_gc(traced_run):
    """Guard: the spans asserted below exist because GC really ran."""
    ssd, _ = traced_run
    assert ssd.ftl.gc_stats.passes > 0
    assert ssd.ftl.gc_stats.copyback_moves > 0


def test_tracing_is_bit_identical_to_untraced_run(module_geometry, traced_run):
    traced_ssd, _ = traced_run
    plain_ssd, _ = run_dloop(module_geometry)
    assert fingerprint(plain_ssd) == fingerprint(traced_ssd)


def test_sampler_alone_is_bit_identical(small_geometry):
    """The sampler adds engine events but must not perturb results."""
    sampled_ssd, _ = run_dloop(small_geometry, stats_interval_us=25_000.0)
    plain_ssd, _ = run_dloop(small_geometry)
    assert fingerprint(plain_ssd) == fingerprint(sampled_ssd)


def test_trace_has_flash_spans_on_plane_and_channel_rows(small_geometry, traced_run):
    _, payload = traced_run
    events = payload["traceEvents"]
    flash = [e for e in events if e.get("cat") == "flash" and e["ph"] == "X"]
    assert len(flash) > 100
    plane_spans = [e for e in flash if e["pid"] == PID_PLANES]
    channel_spans = [e for e in flash if e["pid"] == PID_CHANNELS]
    assert {e["name"] for e in plane_spans} >= {"read", "program", "erase"}
    assert {e["name"] for e in channel_spans} >= {"xfer_in", "xfer_out"}
    # every flash span carries its resource ids and lands on the right row
    for e in plane_spans:
        assert e["tid"] == e["args"]["plane"]
        assert e["tid"] < small_geometry.num_planes
    for e in channel_spans:
        assert e["tid"] == e["args"]["channel"]
        assert e["tid"] < small_geometry.channels


def test_trace_has_gc_and_copyback_activity(traced_run):
    ssd, payload = traced_run
    events = payload["traceEvents"]
    gc = [e for e in events if e.get("cat") == "gc"]
    names = {e["name"] for e in gc}
    assert {"gc_invocation", "victim_selected", "gc_pass", "migrate"} <= names
    # copy-back shows up both as flash spans and as migrate mode
    copybacks = [e for e in events if e["name"] == "copy_back"]
    assert len(copybacks) > 0
    migrate_modes = {e["args"]["mode"] for e in gc if e["name"] == "migrate"}
    assert "copyback" in migrate_modes
    passes = [e for e in gc if e["name"] == "gc_pass"]
    assert len(passes) == ssd.ftl.gc_stats.passes
    # gc_pass spans ride the plane rows, so flash ops nest inside them
    assert all(e["pid"] == PID_PLANES for e in passes)


def test_trace_has_queue_depth_and_host_spans(traced_run):
    ssd, payload = traced_run
    events = payload["traceEvents"]
    depth = [e for e in events if e["ph"] == "C" and e["name"] == "queue_depth"]
    assert len(depth) >= 2 * ssd.stats.count  # arrival + completion each
    assert all("outstanding" in e["args"] for e in depth)
    host = [e for e in events if e.get("cat") == "host" and e["ph"] == "X"]
    assert len(host) == ssd.stats.count
    assert {e["name"] for e in host} == {"read", "write"}


def test_trace_timestamps_monotonic_and_json_clean(traced_run):
    _, payload = traced_run
    data = [e for e in payload["traceEvents"] if e["ph"] != "M"]
    ts = [e["ts"] for e in data]
    assert ts == sorted(ts)
    json.dumps(payload)  # round-trips: no stray numpy scalars anywhere


def test_sampler_series_populated(traced_run):
    ssd, _ = traced_run
    stats = ssd.run_stats
    assert stats.samples > 10
    for name, series in stats.series().items():
        assert len(series) == stats.samples, name
    # GC depleted and recycled free blocks: the series must show motion
    assert min(stats.min_free_blocks) < max(stats.min_free_blocks)
    assert stats.copyback_ratio[-1] > 0
    assert stats.gc_passes[-1] == ssd.ftl.gc_stats.passes
    assert max(stats.queue_depth) > 0
    summary = stats.summary()
    assert summary["samples"] == stats.samples
    assert summary["final_copyback_ratio"] == stats.copyback_ratio[-1]
    json.dumps(summary)


def test_cmt_instants_appear_for_dftl(small_geometry):
    """Demand-paged FTLs publish CMT hit/miss instants."""
    ssd = SimulatedSSD(small_geometry, ftl="dftl")
    ssd.precondition(0.7)
    with BUS.capture() as events:
        ssd.run(update_heavy_workload(small_geometry, n=400))
    cmt = [e for e in events if e.category == "cmt"]
    assert {e.name for e in cmt} >= {"hit", "miss"}
