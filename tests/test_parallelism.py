"""The paper's title claim: plane-level parallelism, per request.

:class:`ParallelismProbe` against hand-built event streams, then on the
Fig. 8 grid (1/256 scale, 300 requests, financial1, tpcc and build):
DLOOP overlaps a multi-page request's flash ops across planes more often
than DFTL, and DFTL more often than FAST, at every (trace, capacity)
point, and subscribing the probe changes no simulated number.
"""

import dataclasses

import pytest

from repro.experiments import figures
from repro.experiments.runner import run_workload
from repro.obs.parallelism import ParallelismProbe
from repro.obs.tracebus import TraceEvent


def io_begin(pages):
    return TraceEvent("host", "io_begin", 0.0, 0.0,
                      {"lpn": 0, "pages": pages, "op": "write"}, None, "i")


def io_dispatch(pages):
    return TraceEvent("host", "io_dispatch", 0.0, 0.0,
                      {"lpn": 0, "pages": pages, "op": "write", "span_us": 0.0}, None, "i")


def flash(name, ts, dur, plane):
    return TraceEvent("flash", name, ts, dur, {"plane": plane, "channel": 0},
                      f"plane:{plane}", "X")


def test_overlapping_planes_score_parallel():
    probe = ParallelismProbe()
    probe(io_begin(4))
    probe(flash("program", 10.0, 20.0, plane=0))
    probe(flash("program", 12.0, 20.0, plane=1))
    probe(io_dispatch(4))
    # a long early op on plane 0 that a later plane-1 op tucks inside
    probe(io_begin(3))
    probe(flash("read", 0.0, 100.0, plane=0))
    probe(flash("read", 40.0, 10.0, plane=1))
    probe(io_dispatch(3))
    assert probe.result() == (1.0, 2, 2)


def test_serial_requests_score_zero_and_single_pages_do_not_count():
    probe = ParallelismProbe()
    # distinct planes, strictly one after the other
    probe(io_begin(4))
    probe(flash("program", 10.0, 20.0, plane=0))
    probe(flash("program", 30.0, 20.0, plane=1))
    probe(io_dispatch(4))
    # overlapping in time, on one plane
    probe(io_begin(4))
    probe(flash("program", 50.0, 20.0, plane=2))
    probe(flash("program", 55.0, 20.0, plane=2))
    probe(io_dispatch(4))
    # a one-page request is not evaluable, however its ops overlap
    probe(io_begin(1))
    probe(flash("program", 0.0, 20.0, plane=0))
    probe(flash("program", 5.0, 20.0, plane=1))
    probe(io_dispatch(1))
    assert probe.result() == (0.0, 2, 0)
    assert ParallelismProbe().result().score is None


GRID = dataclasses.replace(figures.F8, workloads=("financial1", "tpcc", "build"),
                           scale=1.0 / 256.0, num_requests=300)


def _comparable(result) -> dict:
    values = dataclasses.asdict(result)
    del values["wall_time_s"]
    return values


@pytest.fixture(scope="module")
def probed_cells():
    cells = []
    for scenario in GRID.scenarios():
        probe = ParallelismProbe()
        result = run_workload(scenario.workload_spec(), scenario.config(), probes=[probe])
        cells.append((scenario, result, probe.result()))
    return cells


def test_dloop_outscores_dftl_outscores_fast_at_every_point(probed_cells):
    scores = {}
    for scenario, _, parallelism in probed_cells:
        point = scenario.scenario_id.rsplit("|", 1)[0]
        scores.setdefault(point, {})[scenario.ftl] = parallelism.score
    assert len(scores) == 15
    for point, by_ftl in scores.items():
        assert by_ftl["dloop"] > by_ftl["dftl"] > by_ftl["fast"], (point, by_ftl)


def test_the_probe_changes_no_simulated_number(probed_cells):
    for scenario, probed, _ in probed_cells:
        bare = figures.run_cell(scenario)
        assert _comparable(probed) == _comparable(bare), scenario.scenario_id
