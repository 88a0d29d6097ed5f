"""A6 — ablation: GC victim-selection policy inside DLOOP.

The paper fixes the greedy most-invalid rule (Section III.C); this
bench measures what the classic alternatives (cost-benefit, FIFO,
random) change about GC work and response time under the same striped
placement.
"""

from dataclasses import replace

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.experiments.figures import A6
from repro.metrics.report import format_table


def test_ablation_victim_policy(benchmark):
    grid = replace(A6, scale=BENCH_SCALE, num_requests=BENCH_REQUESTS)
    results = run_once(benchmark, grid.run)
    rows = [
        {
            "policy": r.extras["policy"],
            "mean_ms": r.mean_response_ms,
            "gc_passes": r.gc_passes,
            "gc_moved": r.gc_moved_pages,
            "WA": round(r.write_amplification, 2),
        }
        for r in results
    ]
    print()
    print(format_table(rows, title="A6 — GC victim policy (DLOOP, tpcc)"))
    by = {r["policy"]: r for r in rows}
    # the informed policies must not move more data than blind FIFO
    assert by["greedy"]["gc_moved"] <= by["fifo"]["gc_moved"]
    assert by["cost-benefit"]["gc_moved"] <= by["fifo"]["gc_moved"]
    for r in rows:
        assert r["mean_ms"] > 0
