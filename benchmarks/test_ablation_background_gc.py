"""A8 — ablation: idle-time (background) GC on bursty traffic.

The paper models foreground GC only; production controllers reclaim
during idle gaps so bursts find free blocks ready.  This bench replays
a bursty write pattern with long inter-burst gaps and compares DLOOP
with and without the background collector.
"""

import random

from conftest import run_once

from repro.controller.device import SimulatedSSD
from repro.experiments.config import scaled_geometry
from repro.metrics.report import format_table
from repro.sim.request import IoOp, IoRequest


def bursty_requests(geometry, bursts=30, burst_len=60, gap_us=250_000.0, seed=5):
    rng = random.Random(seed)
    space = int(geometry.num_lpns * 0.45)
    requests, t = [], 0.0
    for _ in range(bursts):
        for _ in range(burst_len):
            t += rng.expovariate(1 / 250.0)
            lpn = rng.randrange(space)
            count = min(rng.choice((1, 2, 4)), geometry.num_lpns - lpn)
            requests.append(IoRequest(t, lpn, count, IoOp.WRITE))
        t += gap_us
    return requests


def run_background_gc():
    geometry = scaled_geometry(2, scale=1 / 32)
    requests = bursty_requests(geometry)
    rows = []
    for background in (False, True):
        ssd = SimulatedSSD(geometry, ftl="dloop", background_gc=background)
        ssd.precondition(0.62)
        ssd.run(list(requests))
        ssd.verify()
        stats = ssd.ftl.gc_stats
        rows.append(
            {
                "background_gc": background,
                "mean_ms": ssd.mean_response_ms(),
                "p99_ms": ssd.stats.percentile_us(99) / 1000,
                "foreground_passes": stats.passes - stats.background_passes,
                "background_passes": stats.background_passes,
            }
        )
    return rows


def test_ablation_background_gc(benchmark):
    rows = run_once(benchmark, run_background_gc)
    print()
    print(format_table(rows, title="A8 — background GC on bursty writes (DLOOP, 2 GB-equivalent)"))
    off, on = rows
    assert on["background_passes"] > 0, "idle periods must be exploited"
    # idle-time reclamation absorbs foreground GC and improves the tail
    assert on["foreground_passes"] <= off["foreground_passes"]
    assert on["p99_ms"] <= off["p99_ms"] * 1.05