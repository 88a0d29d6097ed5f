"""A1 — ablation: DLOOP with copy-back disabled.

Same placement policy, but GC moves pages through the controller.
Quantifies how much of DLOOP's advantage is the copy-back mechanism
itself (vs the striping/queueing effects)."""

from dataclasses import replace

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.experiments.figures import A1
from repro.metrics.report import format_table


def test_ablation_copyback(benchmark):
    grid = replace(A1, scale=BENCH_SCALE, num_requests=BENCH_REQUESTS)
    results = run_once(benchmark, grid.run)
    rows = [
        {
            "trace": r.trace,
            "copyback": r.extras["use_copyback"],
            "mean_ms": r.mean_response_ms,
            "gc_moved": r.gc_moved_pages,
            "copyback_moves": r.gc_copyback_moves,
            "bus_moves": r.gc_controller_moves,
            "wasted_pages": r.gc_wasted_pages,
        }
        for r in results
    ]
    print()
    print(format_table(rows, title="A1 — DLOOP copy-back ablation"))
    by = {(r["trace"], r["copyback"]): r for r in rows}
    for trace in {r["trace"] for r in rows}:
        with_cb = by[(trace, True)]
        without = by[(trace, False)]
        assert with_cb["copyback_moves"] > 0
        assert without["copyback_moves"] == 0
        # copy-back must not hurt; under GC pressure it should help
        assert with_cb["mean_ms"] <= without["mean_ms"] * 1.1
