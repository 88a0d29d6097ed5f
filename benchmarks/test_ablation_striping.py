"""A2 — ablation: write-placement policy on the ideal page-map FTL.

Compares Eq. 1's ``LPN % planes`` striping against DFTL-style roaming
and uniform-random placement with mapping-cache effects factored out.
"""

from dataclasses import replace

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.experiments.figures import A2
from repro.metrics.report import format_table


def test_ablation_striping(benchmark):
    grid = replace(
        A2, workloads=("financial1", "tpcc"), scale=BENCH_SCALE, num_requests=BENCH_REQUESTS
    )
    results = run_once(benchmark, grid.run)
    rows = [
        {
            "trace": r.trace,
            "striping": r.extras["striping"],
            "mean_ms": r.mean_response_ms,
            "sdrpp": r.sdrpp,
            "copybacks": r.copybacks,
        }
        for r in results
    ]
    print()
    print(format_table(rows, title="A2 — placement-policy ablation (ideal page-map FTL)"))
    by = {(r["trace"], r["striping"]): r for r in rows}
    for trace in {r["trace"] for r in rows}:
        lpn = by[(trace, "lpn")]
        roaming = by[(trace, "roaming")]
        # striping must beat the single-active-block policy
        assert lpn["mean_ms"] < roaming["mean_ms"]
        # and only plane-local policies can use copy-back in GC
        assert roaming["copybacks"] == 0
