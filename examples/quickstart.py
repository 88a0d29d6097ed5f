#!/usr/bin/env python
"""Quickstart: build a simulated SSD, run a workload, read the metrics.

Builds a small DLOOP-managed SSD, replays a synthetic OLTP-style
workload against it, and prints the paper's two evaluation metrics
(mean response time and SDRPP) plus the GC/copy-back accounting that
explains them.

Run:  python examples/quickstart.py
"""

from repro import SimulatedSSD, SSDGeometry
from repro.metrics import sdrpp, wear_stats
from repro.traces import generate, io_requests, make_workload

MB = 1024 * 1024


def main() -> None:
    # A 256 MB SSD: 32 planes (8 channels x 2 dies x 2 planes),
    # 2 KB pages, 64 pages/block, 3% over-provisioning — the paper's
    # Table I configuration at 1/32 of the 8 GB capacity point.
    geometry = SSDGeometry.from_capacity(256 * MB)
    print("Geometry:")
    for key, value in geometry.describe().items():
        print(f"  {key}: {value}")

    ssd = SimulatedSSD(geometry, ftl="dloop")

    # Age the device first — a factory-fresh SSD never garbage-collects.
    ssd.precondition(0.9)

    # A Financial1-like workload: random-write-dominant OLTP traffic.
    spec = make_workload(
        "financial1",
        num_requests=8000,
        footprint_bytes=int(geometry.capacity_bytes * 0.8),
    )
    print(f"\nReplaying {spec.num_requests} requests of '{spec.name}' "
          f"({spec.write_fraction:.0%} writes, {spec.size_mix.mean_bytes / 1024:.0f} KB mean) ...")

    # page-align the byte-addressed trace and replay it
    end = ssd.run(io_requests(generate(spec), geometry))
    ssd.verify()  # full integrity check: no page lost, no stale mapping

    gc = ssd.ftl.gc_stats
    wear = wear_stats(ssd.ftl.array)
    print(f"\nSimulated {end / 1e6:.1f} s of device time")
    print(f"Mean response time : {ssd.mean_response_ms():.3f} ms")
    print(f"99th percentile    : {ssd.stats.percentile_us(99) / 1000:.3f} ms")
    print(f"SDRPP (ln)         : {sdrpp(ssd.counters):.3f}")
    print(f"CMT hit ratio      : {ssd.ftl.cmt.stats.hit_ratio:.1%}")
    print(f"GC passes          : {gc.passes} "
          f"(moved {gc.moved_pages} pages, {gc.copyback_moves} by copy-back, "
          f"{gc.wasted_pages} parity-wasted)")
    print(f"Erases             : {wear.total_erases} "
          f"(max/block {wear.max_erases}, wear CV {wear.cv:.2f})")


if __name__ == "__main__":
    main()
