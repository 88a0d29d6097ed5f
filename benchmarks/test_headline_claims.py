"""H1 — headline claim: average improvement at the largest capacity.

Paper: "we observe an average 57.8% and 85.5% improvement in mean
response time on a 64 GB flash SSD compared with DFTL and FAST."
Absolute percentages depend on the authors' trace instances; the shape
requirement is a *substantial average improvement over both rivals* at
the largest capacity point.
"""

from collections import defaultdict
from dataclasses import replace

from conftest import BENCH_REQUESTS, BENCH_SCALE, parallelism_rows, run_once, run_probed_grid

from repro.experiments.figures import F8
from repro.metrics.report import format_table


def test_headline_improvement_at_64gb(benchmark):
    # F8 fixes the footprint at the 2 GB point, so the 64 GB cells run alone
    grid = replace(F8, points=(64,), scale=BENCH_SCALE, num_requests=BENCH_REQUESTS)
    results = run_once(benchmark, run_probed_grid, grid)
    means = defaultdict(dict)
    for r in results:
        means[r.trace][r.ftl] = r.mean_response_ms

    rows = []
    improvements = {"dftl": [], "fast": []}
    for trace, vals in means.items():
        row = {"trace": trace, **{k: round(v, 4) for k, v in vals.items()}}
        for rival in ("dftl", "fast"):
            imp = 100.0 * (vals[rival] - vals["dloop"]) / vals[rival]
            row[f"improvement vs {rival} (%)"] = round(imp, 1)
            improvements[rival].append(imp)
        rows.append(row)
    print()
    print(format_table(rows, title="Headline — DLOOP improvement at 64 GB-equivalent (paper: 57.8% vs DFTL, 85.5% vs FAST)"))
    avg_dftl = sum(improvements["dftl"]) / len(improvements["dftl"])
    avg_fast = sum(improvements["fast"]) / len(improvements["fast"])
    print(f"average improvement: {avg_dftl:.1f}% vs DFTL, {avg_fast:.1f}% vs FAST")
    print(format_table(parallelism_rows(grid, results),
                       title="Headline — share of multi-page requests served by overlapping planes at 64 GB"))
    assert avg_dftl > 20.0, "DLOOP should improve substantially over DFTL"
    assert avg_fast > 40.0, "DLOOP should improve substantially over FAST"
    assert avg_fast > avg_dftl, "FAST should trail DFTL (paper's ordering)"
