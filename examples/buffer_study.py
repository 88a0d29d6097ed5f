#!/usr/bin/env python
"""Write-buffer study: how much DRAM caching in front of an FTL buys.

Fig. 1a shows the controller's DRAM buffer manager; the paper evaluates
FTLs without one.  This example quantifies what a small LRU write-back
buffer changes: absorbed rewrites, flash write amplification, and mean
response time, for DLOOP and FAST (hybrids benefit most — absorbed
rewrites are merges avoided).

Run:  python examples/buffer_study.py
"""

from repro.controller.device import SimulatedSSD
from repro.experiments.config import scaled_geometry
from repro.metrics.amplification import amplification
from repro.metrics.report import format_table
from repro.traces.stream import io_requests
from repro.traces.synthetic import generate, make_workload

SCALE = 1 / 32
GB = 1024 ** 3


def run(ftl: str, buffer_pages, trace) -> dict:
    geometry = scaled_geometry(8, scale=SCALE)
    ssd = SimulatedSSD(geometry, ftl=ftl, write_buffer_pages=buffer_pages)
    ssd.precondition(0.55)
    ssd.run(io_requests(trace, geometry))
    ssd.flush()
    ssd.verify()
    report = amplification(ssd.stats, ssd.counters)
    row = {
        "ftl": ftl,
        "buffer_pages": buffer_pages or 0,
        "mean_ms": round(ssd.mean_response_ms(), 3),
        "flash_programs": ssd.counters.programs,
        "WA": round(report.write_amplification, 3),
    }
    if ssd.write_buffer is not None:
        row["write_hit_%"] = round(100 * ssd.write_buffer.stats.write_hit_ratio, 1)
    return row


def main() -> None:
    geometry = scaled_geometry(8, scale=SCALE)
    spec = make_workload(
        "financial1",
        num_requests=5000,
        footprint_bytes=int(geometry.capacity_bytes * 0.45),
    )
    trace = generate(spec)
    rows = []
    for ftl in ("dloop", "fast"):
        for buffer_pages in (None, 256, 1024, 4096):
            rows.append(run(ftl, buffer_pages, trace))
    print(format_table(rows, title="Write buffer in front of the FTL (financial1, 8 GB-equivalent)"))
    print("""
The buffer absorbs re-writes of hot pages before they reach flash:
write amplification and flash program counts fall with buffer size, and
FAST gains disproportionately because every absorbed rewrite is log
pressure (and eventually a merge) avoided.
""")


if __name__ == "__main__":
    main()
