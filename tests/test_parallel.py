"""Parallel execution: ``run_cells`` maps a picklable function in order."""

import pytest

from repro.experiments.config import ExperimentConfig, scaled_geometry
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_workload
from repro.traces.model import KB, SizeMix, WorkloadSpec

TINY_SCALE = 1.0 / 256.0
FTLS = ("dloop", "fast", "pagemap")


def tiny_spec(name="par", seed=3):
    return WorkloadSpec(
        name=name,
        num_requests=200,
        write_fraction=0.6,
        request_rate_per_s=800.0,
        size_mix=SizeMix.fixed(2 * KB),
        footprint_bytes=4 * 1024 * 1024,
        seed=seed,
    )


def simulate(ftl):
    geom = scaled_geometry(2, scale=TINY_SCALE)
    config = ExperimentConfig(geometry=geom, ftl=ftl, precondition_fill=0.5)
    return run_workload(tiny_spec(), config)


def test_serial_execution():
    results = run_cells(FTLS, simulate, processes=1)
    assert [r.ftl for r in results] == list(FTLS)
    assert all(r.num_requests == 200 for r in results)


def test_parallel_matches_serial():
    serial = run_cells(FTLS, simulate, processes=1)
    parallel = run_cells(FTLS, simulate, processes=2)
    for a, b in zip(serial, parallel):
        assert a.ftl == b.ftl
        assert a.mean_response_ms == pytest.approx(b.mean_response_ms)
        assert a.sdrpp == pytest.approx(b.sdrpp)
        assert a.gc_passes == b.gc_passes


def test_empty_cells():
    assert run_cells([], simulate, processes=2) == []
