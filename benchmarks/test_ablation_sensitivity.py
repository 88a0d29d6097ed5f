"""A3 — ablation: DLOOP sensitivity to the GC threshold and CMT size."""

from dataclasses import replace

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.experiments.figures import A3
from repro.metrics.report import format_table


def test_ablation_sensitivity(benchmark):
    grid = replace(A3, scale=BENCH_SCALE, num_requests=BENCH_REQUESTS)
    results = run_once(benchmark, grid.run)
    rows = [
        {
            "knob": r.extras["knob"],
            "value": r.extras["value"],
            "mean_ms": r.mean_response_ms,
            "gc_passes": r.gc_passes,
            "cmt_hit_ratio": r.cmt_hit_ratio,
        }
        for r in results
    ]
    print()
    print(format_table(rows, title="A3 — DLOOP sensitivity (financial1)"))
    cmt_rows = sorted((r for r in rows if r["knob"] == "cmt_entries"), key=lambda r: r["value"])
    # a larger CMT never lowers the hit ratio
    ratios = [r["cmt_hit_ratio"] for r in cmt_rows]
    assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
    # and the biggest CMT should serve financial1's hot set well
    assert ratios[-1] > 0.5
