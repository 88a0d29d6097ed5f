"""F10 — Fig. 10: mean response time and SDRPP vs percentage of extra blocks.

Regenerates the 3/5/7/10 % over-provisioning sweep.  Shape checks:
DLOOP leads everywhere; FAST (whose log pool is provisioned from the
extra blocks) benefits the most from additional extras.
"""

from dataclasses import replace

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.experiments.figures import F10
from repro.metrics.report import format_table


def test_fig10_extrablocks_sweep(benchmark):
    grid = replace(F10, scale=BENCH_SCALE, num_requests=BENCH_REQUESTS)
    table = grid.rows(run_once(benchmark, grid.run))
    print()
    print(format_table(table, title="Fig. 10 — mean response time (ms) and SDRPP vs extra blocks %% (8 GB-equivalent, scaled 1/32)"))

    by_cell = {(r["trace"], r["ftl"], r["extra_%"]): r for r in table}
    traces = sorted({r["trace"] for r in table})
    lo, hi = min(grid.points), max(grid.points)

    # Shape 1: DLOOP beats the rivals in (nearly) all cells.
    wins = total = 0
    for trace in traces:
        for pct in grid.points:
            dloop = by_cell[(trace, "dloop", pct)]["mean_ms"]
            for other in ("dftl", "fast"):
                total += 1
                wins += dloop < by_cell[(trace, other, pct)]["mean_ms"]
    print(f"DLOOP wins {wins}/{total} cells")
    assert wins >= 0.85 * total

    # Shape 2: FAST improves with more extra blocks (bigger log pool)
    # on the write-heavy traces.
    improved = 0
    for trace in ("financial1", "tpcc", "build"):
        if by_cell[(trace, "fast", hi)]["mean_ms"] <= by_cell[(trace, "fast", lo)]["mean_ms"]:
            improved += 1
    print(f"FAST improves lo->hi extras on {improved}/3 write-heavy traces")
    assert improved >= 2
