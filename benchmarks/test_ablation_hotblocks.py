"""A4 — the paper's future work: hot-plane-aware extra-block assignment.

Compares uniform DLOOP against HotPlaneDloopFtl, which parks part of
cold planes' over-provisioning so hot planes keep more spare blocks.
"""

from dataclasses import replace

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.experiments.figures import A4
from repro.metrics.report import format_table


def test_ablation_hotplane(benchmark):
    grid = replace(A4, scale=BENCH_SCALE, num_requests=BENCH_REQUESTS)
    results = run_once(benchmark, grid.run)
    rows = [
        {
            "trace": r.trace,
            "ftl": r.ftl,
            "mean_ms": r.mean_response_ms,
            "gc_passes": r.gc_passes,
            "gc_moved": r.gc_moved_pages,
        }
        for r in results
    ]
    print()
    print(format_table(rows, title="A4 — hot-plane extra-block assignment (Section VI future work)"))
    by = {(r["trace"], r["ftl"]) for r in rows}
    assert len(by) == len(rows)
    # The variant must at minimum function correctly end-to-end; whether
    # it helps depends on how skewed the per-plane heat is (LPN striping
    # evens it out for these traces — reported, not asserted).
    for r in rows:
        assert r["mean_ms"] > 0
