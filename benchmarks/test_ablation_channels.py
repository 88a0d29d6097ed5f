"""A9 — channel-level parallelism at fixed capacity.

Section II.C ranks the parallelism levels by cost: channels are the
most effective but the most expensive.  This bench varies the channel
count (constant capacity, constant planes per channel) and shows what
the costly knob buys — and that DLOOP's plane-level win persists at
every channel count.
"""

from dataclasses import replace

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.experiments.figures import A9
from repro.metrics.report import format_table


def test_ablation_channels(benchmark):
    grid = replace(A9, scale=BENCH_SCALE, num_requests=BENCH_REQUESTS)
    results = run_once(benchmark, grid.run)
    rows = [
        {
            "channels": r.extras["channels"],
            "ftl": r.ftl,
            "mean_ms": r.mean_response_ms,
            "sdrpp": r.sdrpp,
        }
        for r in results
    ]
    print()
    print(format_table(rows, title="A9 — channel count at fixed capacity (tpcc)"))
    by = {(r["channels"], r["ftl"]): r for r in rows}
    channels = sorted({r["channels"] for r in rows})
    # more channels never hurt DLOOP...
    assert by[(channels[-1], "dloop")]["mean_ms"] <= by[(channels[0], "dloop")]["mean_ms"]
    # ...and DLOOP beats DFTL at every channel count
    for c in channels:
        assert by[(c, "dloop")]["mean_ms"] < by[(c, "dftl")]["mean_ms"]
