"""Result persistence: JSON round trips."""

import io

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig, scaled_geometry
from repro.experiments.results_io import (
    load_results_json,
    result_from_dict,
    result_to_dict,
    save_results_json,
)
from repro.experiments.runner import run_workload
from repro.traces.model import KB, SizeMix, WorkloadSpec

TINY_SCALE = 1.0 / 256.0


@pytest.fixture(scope="module")
def sample_results():
    geom = scaled_geometry(2, scale=TINY_SCALE)
    spec = WorkloadSpec(
        name="io-test",
        num_requests=300,
        write_fraction=0.6,
        request_rate_per_s=800.0,
        size_mix=SizeMix.fixed(2 * KB),
        footprint_bytes=4 * 1024 * 1024,
        seed=9,
    )
    results = []
    for ftl in ("dloop", "fast"):
        config = ExperimentConfig(geometry=geom, ftl=ftl, precondition_fill=0.5)
        r = run_workload(spec, config)
        r.extras["capacity_gb"] = 2
        results.append(r)
    return results


def test_dict_round_trip(sample_results):
    original = sample_results[0]
    back = result_from_dict(result_to_dict(original))
    assert back.ftl == original.ftl
    assert back.mean_response_ms == original.mean_response_ms
    assert back.sdrpp == original.sdrpp
    assert np.array_equal(back.plane_ops, original.plane_ops)
    assert back.wear == original.wear
    assert back.extras == original.extras


def test_json_round_trip(sample_results):
    buffer = io.StringIO()
    save_results_json(sample_results, buffer)
    buffer.seek(0)
    loaded = load_results_json(buffer)
    assert len(loaded) == 2
    assert [r.ftl for r in loaded] == [r.ftl for r in sample_results]
    assert loaded[0].extras["capacity_gb"] == 2


def test_json_file_round_trip(sample_results, tmp_path):
    path = str(tmp_path / "results.json")
    save_results_json(sample_results, path)
    loaded = load_results_json(path)
    assert loaded[1].trace == "io-test"
