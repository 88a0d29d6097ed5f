"""X3 — read-tail latency during GC: the bus-freeing effect of copy-back.

Section III.A: intra-plane copy-back "does not use external channels at
all, which can let other operations be executed simultaneously".  The
observable consequence is in the *read tail*: while GC runs, reads must
cross the bus — if GC also occupies the bus (no copy-back), reads queue
behind it.  This bench compares the read-latency distribution of DLOOP
with and without copy-back on a GC-heavy mixed load.
"""

from conftest import BENCH_REQUESTS, BENCH_SCALE, BENCH_STATS_INTERVAL_US, run_once

from repro.controller.device import SimulatedSSD
from repro.experiments.config import GB, scaled_geometry
from repro.metrics.latency import LatencyHistogram
from repro.metrics.report import format_table
from repro.sim.request import IoOp
from repro.traces.stream import io_requests
from repro.traces.synthetic import generate, make_workload


def run_tails():
    geometry = scaled_geometry(2, scale=BENCH_SCALE)
    footprint = int(2 * GB * BENCH_SCALE * 0.45)
    spec = make_workload("tpcc", num_requests=BENCH_REQUESTS, footprint_bytes=footprint)
    trace = generate(spec)
    rows = []
    for label, use_copyback in (("dloop", True), ("dloop-nocb", False)):
        ssd = SimulatedSSD(geometry, ftl="dloop", use_copyback=use_copyback,
                           stats_interval_us=BENCH_STATS_INTERVAL_US)
        ssd.precondition(0.55)
        histogram = LatencyHistogram()

        def record_read(request, histogram=histogram):
            if request.op is IoOp.READ and request.error is None:
                histogram.record(request.response_us)

        ssd.controller.on_complete.append(record_read)
        ssd.run(io_requests(trace, geometry))
        summary = histogram.summary()
        counters = ssd.counters.as_dict()
        rows.append(
            {
                "ftl": label,
                "reads": summary["count"],
                "read_mean_ms": summary["mean_us"] / 1000,
                "read_p95_ms": summary["p95_us"] / 1000,
                "read_p99_ms": summary["p99_us"] / 1000,
                "gc_moved": ssd.ftl.gc_stats.moved_pages,
                "bus_busy_s": sum(counters["channel_busy_us"]) / 1e6,
            }
        )
    return rows


def test_read_tails_with_and_without_copyback(benchmark):
    rows = run_once(benchmark, run_tails)
    print()
    print(format_table(rows, title="X3 — read-latency tail during GC (tpcc, 2 GB-equivalent)"))
    by = {r["ftl"]: r for r in rows}
    with_cb = by["dloop"]
    without = by["dloop-nocb"]
    assert with_cb["gc_moved"] > 0, "the regime must exercise GC"
    # copy-back keeps the bus freer...
    assert with_cb["bus_busy_s"] < without["bus_busy_s"]
    # ...and the read tail no worse
    assert with_cb["read_p99_ms"] <= without["read_p99_ms"] * 1.05