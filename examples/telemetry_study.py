#!/usr/bin/env python
"""Telemetry study: watch GC dynamics and background reclamation live.

Replays a bursty write pattern (bursts with long idle gaps) against
DLOOP twice — with and without the idle-time background collector —
while the telemetry sampler records free-block levels, queue depth and
GC progress.  The sparkline panels make the mechanism visible: without
background GC the free pool saw-tooths *during* bursts (foreground
stalls); with it, pools recover in the gaps.

Run:  python examples/telemetry_study.py
"""

import random

from repro.controller.device import SimulatedSSD
from repro.experiments.config import scaled_geometry
from repro.metrics.ascii_chart import series_chart
from repro.metrics.report import format_table
from repro.sim.request import IoOp, IoRequest

#: Sparkline label -> RunStats series drawn for each run.
PANEL = {
    "min_free_blocks": "min_free_blocks",
    "total_free_blocks": "total_free_blocks",
    "outstanding": "queue_depth",
    "gc_passes": "gc_passes",
    "flash_programs": "flash_programs",
}


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


def main() -> None:
    geometry = scaled_geometry(2, scale=1 / 32)
    requests = bursty_requests(geometry)
    rows = []
    for background in (False, True):
        # stats_interval_us attaches the repro.obs snapshot sampler;
        # ssd.run_stats holds its series, drawn here as sparklines.
        ssd = SimulatedSSD(
            geometry,
            ftl="dloop",
            background_gc=background,
            stats_interval_us=100_000.0,
        )
        ssd.precondition(0.62)
        ssd.run(list(requests))
        ssd.verify()
        stats = ssd.ftl.gc_stats
        label = "with background GC" if background else "foreground GC only"
        series = ssd.run_stats.series()
        panel = {name: series[key] for name, key in PANEL.items()}
        print(series_chart(panel, title=f"== {label} =="))
        print()
        rows.append(
            {
                "mode": label,
                "mean_ms": round(ssd.mean_response_ms(), 3),
                "p99_ms": round(ssd.stats.percentile_us(99) / 1000, 2),
                "foreground_passes": stats.passes - stats.background_passes,
                "background_passes": stats.background_passes,
            }
        )
    print(format_table(rows, title="bursty writes, 2 GB-equivalent DLOOP"))
    print("""
Idle-time reclamation converts foreground GC stalls (paid inside
request latencies) into background passes paid between bursts: the p99
drops while total reclamation work stays the same.
""")


if __name__ == "__main__":
    main()
