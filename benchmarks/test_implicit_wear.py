"""X5 — DLOOP's implicit wear-leveling claim (Section III.C).

"Update requests are always directed to the same plane that their
original data is stored, which implicitly wear-levels all blocks on
one plane without an external wear-leveling mechanism."

This bench measures per-block erase-count spread (coefficient of
variation) for DLOOP with no leveler against DFTL and FAST, and then
shows what an external static leveler adds on top of DLOOP — the
quantified version of the claim.
"""

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.controller.device import SimulatedSSD
from repro.experiments.config import GB, scaled_geometry
from repro.ftl.wearlevel import StaticWearLeveler
from repro.metrics.report import format_table
from repro.metrics.wear import wear_stats
from repro.traces.stream import io_requests
from repro.traces.synthetic import generate, make_workload


def run_wear_comparison():
    geometry = scaled_geometry(2, scale=BENCH_SCALE)
    footprint = int(2 * GB * BENCH_SCALE * 0.45)
    spec = make_workload("build", num_requests=BENCH_REQUESTS, footprint_bytes=footprint)
    trace = generate(spec)
    rows = []
    for label, ftl_name, leveled in (
        ("dloop (implicit)", "dloop", False),
        ("dloop + leveler", "dloop", True),
        ("dftl", "dftl", False),
        ("fast", "fast", False),
    ):
        ssd = SimulatedSSD(geometry, ftl=ftl_name)
        leveler = StaticWearLeveler(ssd.ftl, gap_threshold=4, check_interval_erases=32) if leveled else None
        ssd.precondition(0.55)
        ssd.run(io_requests(trace, geometry))
        if leveler is not None:
            leveler.maybe_level(ssd.engine.now)
        ssd.verify()
        wear = wear_stats(ssd.ftl.array)
        rows.append(
            {
                "config": label,
                "total_erases": wear.total_erases,
                "max_per_block": wear.max_erases,
                "wear_CV": round(wear.cv, 2),
                "migrations": leveler.stats.migrations if leveler else 0,
            }
        )
    return rows


def test_implicit_wear_leveling(benchmark):
    rows = run_once(benchmark, run_wear_comparison)
    print()
    print(format_table(rows, title="X5 — erase-count spread (build trace; lower CV = more even wear)"))
    by = {r["config"]: r for r in rows}
    # DLOOP's unassisted spread beats DFTL's (whose plane-0 translation
    # blocks concentrate erases)
    assert by["dloop (implicit)"]["wear_CV"] < by["dftl"]["wear_CV"]
    for r in rows:
        assert r["total_erases"] > 0