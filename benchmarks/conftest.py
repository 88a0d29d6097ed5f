"""Shared benchmark configuration.

Benchmarks reproduce the paper's tables/figures at a scaled geometry
(see DESIGN.md section 2 and repro.experiments.config).  Every bench
prints the regenerated rows/series; pytest-benchmark records the
harness runtime (one round — these are simulations, not microkernels).

Benches that need device-state readings go through the observability
layer (``repro.obs``): attach the snapshot sampler with
``stats_interval_us=BENCH_STATS_INTERVAL_US`` and read plain-python
values from ``ssd.run_stats`` / ``counters.as_dict()`` instead of
polling numpy internals ad hoc.  The paper-grid benches that check
the title claim run their cells through :func:`run_probed_grid`, which
subscribes a :class:`repro.obs.parallelism.ParallelismProbe` per cell.
"""

from itertools import product

import pytest

from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_workload
from repro.obs.parallelism import ParallelismProbe

#: Linear shrink applied to the paper's capacities and footprints.
BENCH_SCALE = 1.0 / 32.0
#: Requests per simulated trace replay.
BENCH_REQUESTS = 4000
#: Snapshot-sampler grid for benches that record run statistics.
BENCH_STATS_INTERVAL_US = 50_000.0


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-experiment callable exactly once under the benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_probed_cell(scenario):
    """One grid cell with the parallelism probe subscribed for its
    measured run; the probe's result lands in ``extras["parallelism"]``."""
    probe = ParallelismProbe()
    result = run_workload(scenario.workload_spec(), scenario.config(), probes=[probe])
    result.extras["parallelism"] = probe.result()
    return result


def run_probed_grid(grid):
    """``grid.run()`` for a one-axis grid, every cell probed."""
    results = run_cells(grid.scenarios(), run_probed_cell)
    for result, (_, point, _) in zip(results, product(grid.workloads, grid.points, grid.ftls)):
        result.extras[grid.axis] = point
    return results


def parallelism_rows(grid, results):
    """One row per (trace, point): each FTL's parallelism score, the
    share of multi-page requests whose flash ops overlap across planes
    (``None`` where the trace has no multi-page request)."""
    rows = {}
    for r in results:
        key = (r.trace, r.extras[grid.axis])
        row = rows.setdefault(key, {"trace": r.trace, grid.axis: key[1]})
        score = r.extras["parallelism"].score
        row[r.ftl] = None if score is None else round(score, 3)
    return list(rows.values())


@pytest.fixture
def bench_scale():
    return BENCH_SCALE


@pytest.fixture
def bench_requests():
    return BENCH_REQUESTS


@pytest.fixture
def bench_stats_interval_us():
    return BENCH_STATS_INTERVAL_US
