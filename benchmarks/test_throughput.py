"""X6 — sustainable throughput (closed loop, fixed queue depth).

The paper reports open-loop response times; the complementary metric
is closed-loop throughput: keep N requests outstanding and measure
IOPS.  A closed loop at depth N is the controller's admission window
at ``queue_depth=N`` over requests that all arrive at 0.  Run per FTL
on a GC-active random-write stream — the FTL whose reclamation costs
least sustains the highest rate — and per queue depth for DLOOP,
showing the plane-level parallelism turning depth into throughput.
"""

import random

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.controller.device import SimulatedSSD
from repro.experiments.config import MB, scaled_geometry
from repro.metrics.report import format_table
from repro.sim.request import IoOp, IoRequest


def random_write_lpns(geometry, n, seed=23):
    rng = random.Random(seed)
    space = int(geometry.num_lpns * 0.45)
    return [rng.randrange(space) for _ in range(n)]


def closed_loop_row(ssd, lpns, depth):
    """One-page writes at depth ``depth``: the window over zero arrivals."""
    end = ssd.run_stream(iter([IoRequest(0.0, lpn, 1, IoOp.WRITE) for lpn in lpns]),
                         queue_depth=depth)
    stats = ssd.stats
    seconds = end / 1e6
    mib = (stats.pages_read + stats.pages_written) * ssd.geometry.page_size / MB
    return {"completed": stats.count,
            "IOPS": round(stats.count / seconds, 1) if seconds > 0 else 0.0,
            "MB/s": round(mib / seconds, 2) if seconds > 0 else 0.0}


def run_throughput():
    geometry = scaled_geometry(2, scale=BENCH_SCALE)
    lpns = random_write_lpns(geometry, max(6000, BENCH_REQUESTS))
    ftl_rows = []
    for ftl in ("dloop", "dftl", "fast"):
        ssd = SimulatedSSD(geometry, ftl=ftl)
        ssd.precondition(0.52)
        row = closed_loop_row(ssd, lpns, 16)
        ssd.verify()
        ftl_rows.append({"ftl": ftl, "iodepth": 16, **row})
    depth_rows = []
    for depth in (1, 4, 16, 64):
        ssd = SimulatedSSD(geometry, ftl="dloop")
        ssd.precondition(0.52)
        depth_rows.append({"ftl": "dloop", "iodepth": depth,
                           **closed_loop_row(ssd, lpns, depth)})
    return ftl_rows, depth_rows


def test_throughput(benchmark):
    ftl_rows, depth_rows = run_once(benchmark, run_throughput)
    print()
    print(format_table(ftl_rows, title="X6a — random-write IOPS at iodepth 16"))
    print()
    print(format_table(depth_rows, title="X6b — DLOOP IOPS vs queue depth"))
    by_ftl = {r["ftl"]: r["IOPS"] for r in ftl_rows}
    assert by_ftl["dloop"] > by_ftl["dftl"] > by_ftl["fast"]
    depths = [r["IOPS"] for r in depth_rows]
    # deeper queues expose more plane parallelism: monotone non-decreasing
    assert all(b >= a * 0.95 for a, b in zip(depths, depths[1:]))
    assert depths[-1] > depths[0] * 2  # and substantially so