"""Workload characterisation metrics."""

import pytest

from repro.traces.analysis import characterize
from repro.traces.model import KB, SizeMix, TraceRequest, WorkloadSpec
from repro.traces.synthetic import generate

MB = 1024 * KB


def spec(**overrides):
    base = dict(
        name="t",
        num_requests=2000,
        write_fraction=0.6,
        request_rate_per_s=1000.0,
        size_mix=SizeMix.fixed(4 * KB),
        footprint_bytes=8 * MB,
        seed=2,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_write_fraction_measured():
    c = characterize(generate(spec(write_fraction=0.8)))
    assert c.write_fraction == pytest.approx(0.8, abs=0.05)


def test_footprint_bounded_by_spec():
    s = spec()
    c = characterize(generate(s))
    assert c.footprint_bytes <= s.footprint_bytes * 1.02
    assert c.footprint_bytes > s.footprint_bytes * 0.3  # most chunks touched


def test_sequentiality_reflects_spec():
    seq = characterize(generate(spec(sequential_fraction=0.8)))
    rnd = characterize(generate(spec(sequential_fraction=0.0)))
    assert seq.sequential_fraction > rnd.sequential_fraction + 0.3


def test_hot_share_reflects_zipf():
    hot = characterize(generate(spec(zipf_theta=1.2)))
    uniform = characterize(generate(spec(zipf_theta=0.0)))
    assert hot.hot10_share > uniform.hot10_share
    assert hot.hot1_share > uniform.hot1_share
    assert 0 < uniform.hot10_share <= 1


def test_update_distance_shrinks_with_locality():
    hot = characterize(generate(spec(zipf_theta=1.3)))
    uniform = characterize(generate(spec(zipf_theta=0.0)))
    assert hot.median_update_distance < uniform.median_update_distance


def test_poisson_burstiness_near_one():
    c = characterize(generate(spec()))
    assert c.burstiness_cv == pytest.approx(1.0, abs=0.15)


def test_read_only_trace_update_distance_inf():
    trace = [TraceRequest(float(i), i * 4096, 4096, False) for i in range(50)]
    c = characterize(trace)
    assert c.mean_update_distance == float("inf")
    assert c.write_fraction == 0.0


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        characterize([])


def test_bad_chunk_rejected():
    with pytest.raises(ValueError):
        characterize([TraceRequest(0.0, 0, 100, True)], chunk_bytes=0)


def test_row_is_table_friendly():
    row = characterize(generate(spec())).row()
    assert set(row) == {
        "requests", "footprint_MB", "write_%", "seq_%",
        "upd_dist_med", "hot10_%", "hot1_%", "burst_cv",
    }
