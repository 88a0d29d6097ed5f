"""F9 — Fig. 9: mean response time and SDRPP vs flash page size.

Regenerates the 2/4/8/16 KB sweep at the fixed (scaled) 8 GB capacity.
Shape checks: mean response time falls as pages grow (fewer pages per
request), and DLOOP leads at the paper's default 2 KB point.
"""

from dataclasses import replace

from conftest import BENCH_REQUESTS, run_once

# Gentler scale than the other figures: at 1/32 a 16 KB-page geometry
# keeps only 8 blocks per plane, a granularity cliff the paper's full-
# size SSD does not have.  1/8 preserves >= 32 blocks/plane everywhere.
FIG9_SCALE = 1.0 / 8.0

from repro.experiments.figures import F9
from repro.metrics.report import format_table


def test_fig9_pagesize_sweep(benchmark):
    grid = replace(F9, scale=FIG9_SCALE, num_requests=BENCH_REQUESTS)
    table = grid.rows(run_once(benchmark, grid.run))
    print()
    print(format_table(table, title="Fig. 9 — mean response time (ms) and SDRPP vs page size (8 GB-equivalent, scaled 1/8)"))

    by_cell = {(r["trace"], r["ftl"], r["page_kb"]): r for r in table}
    traces = sorted({r["trace"] for r in table})

    # Shape 1: growing pages beyond 2 KB lowers DLOOP's mean response on
    # most traces.  (The paper's curves keep falling through 16 KB; our
    # synthetic small-request traces pay the 16 KB transfer time on
    # every 2-3 KB request, so we check the 2->4/8 KB range —
    # EXPERIMENTS.md discusses the 16 KB tail.)
    falls = 0
    for trace in traces:
        base = by_cell[(trace, "dloop", 2)]["mean_ms"]
        mid = min(by_cell[(trace, "dloop", 4)]["mean_ms"], by_cell[(trace, "dloop", 8)]["mean_ms"])
        if mid <= base:
            falls += 1
    print(f"DLOOP mean falls 2->4/8 KB on {falls}/{len(traces)} traces")
    assert falls >= len(traces) - 2

    # Shape 2: DLOOP leads both rivals at the paper's default 2 KB
    # pages.  One dead heat is tolerated: financial1's 2 KB cell sits
    # within a few percent of DFTL in this trace realization (the trace
    # is GC-light at 8 GB-equivalent, so the two page-mapped FTLs
    # converge); any outright loss must stay inside 10 %.
    wins = losses = 0
    for trace in traces:
        dloop = by_cell[(trace, "dloop", 2)]["mean_ms"]
        for other in ("dftl", "fast"):
            rival = by_cell[(trace, other, 2)]["mean_ms"]
            if dloop < rival:
                wins += 1
            else:
                losses += 1
                assert dloop <= rival * 1.1, (
                    f"{trace}: dloop loses to {other} at 2 KB by more than 10%"
                )
    print(f"DLOOP wins {wins}/{wins + losses} 2 KB cells")
    assert wins >= 2 * len(traces) - 1
