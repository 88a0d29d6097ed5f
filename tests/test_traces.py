"""Trace generators, statistics, parsers, Zipf sampler."""

import io

import numpy as np
import pytest

from repro.traces.model import KB, SizeMix, TraceRequest, WorkloadSpec
from repro.traces.synthetic import PAPER_TRACE_NAMES
from repro.traces.parser import parse_disksim, parse_spc, write_disksim, write_spc
from repro.traces.stats import measure
from repro.traces.synthetic import generate, make_workload
from repro.traces.zipf import ZipfSampler

MB = 1024 * KB


def small_spec(**overrides):
    base = dict(
        name="test",
        num_requests=2000,
        write_fraction=0.6,
        request_rate_per_s=1000.0,
        size_mix=SizeMix.fixed(4 * KB),
        footprint_bytes=8 * MB,
        seed=1,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_generator_is_deterministic():
    a = generate(small_spec())
    b = generate(small_spec())
    assert a == b


def test_different_seeds_differ():
    a = generate(small_spec(seed=1))
    b = generate(small_spec(seed=2))
    assert a != b


def test_write_fraction_matches_spec():
    trace = generate(small_spec(write_fraction=0.7))
    writes = sum(1 for r in trace if r.is_write)
    assert writes / len(trace) == pytest.approx(0.7, abs=0.05)


def test_arrival_rate_matches_spec():
    spec = small_spec(request_rate_per_s=500.0)
    trace = generate(spec)
    stats = measure("t", trace)
    assert stats.rate_per_s == pytest.approx(500.0, rel=0.1)


def test_arrivals_monotone():
    trace = generate(small_spec())
    arrivals = [r.arrival_us for r in trace]
    assert arrivals == sorted(arrivals)


def test_offsets_within_footprint():
    spec = small_spec()
    for r in generate(spec):
        assert 0 <= r.offset_bytes
        assert r.end_bytes <= spec.footprint_bytes


def test_size_mixture_mean():
    mix = SizeMix((2 * KB, 4 * KB), (0.5, 0.5))
    assert mix.mean_bytes == 3 * KB
    trace = generate(small_spec(size_mix=mix))
    mean = np.mean([r.size_bytes for r in trace])
    assert mean == pytest.approx(3 * KB, rel=0.05)


def test_sequential_fraction_produces_runs():
    seq = generate(small_spec(sequential_fraction=0.9))
    rand = generate(small_spec(sequential_fraction=0.0))

    def seq_count(trace):
        return sum(1 for a, b in zip(trace, trace[1:]) if b.offset_bytes == a.end_bytes)

    assert seq_count(seq) > seq_count(rand) + 100


def test_zipf_concentrates_accesses():
    hot = generate(small_spec(zipf_theta=1.2))
    cold = generate(small_spec(zipf_theta=0.0))

    def top_chunk_share(trace, chunk=64 * KB):
        chunks = [r.offset_bytes // chunk for r in trace]
        _, counts = np.unique(chunks, return_counts=True)
        return counts.max() / len(trace)

    assert top_chunk_share(hot) > top_chunk_share(cold)


def test_all_five_paper_workloads_build():
    for name in PAPER_TRACE_NAMES:
        trace = generate(make_workload(name, 500, 8 * MB))
        assert len(trace) == 500
        stats = measure(name, trace)
        assert stats.num_writes + stats.num_reads == 500


def test_table2_fingerprints():
    """Generated traces match the Table II write%% / size calibration."""
    expected = {
        "financial1": (63, 3.0),
        "financial2": (18, 2.0),
        "tpcc": (61, 8.0),
        "exchange": (46, 12.0),
        "build": (84, 8.0),
    }
    for name, (write_pct, size_kb) in expected.items():
        spec = make_workload(name, num_requests=4000, footprint_bytes=32 * MB)
        stats = measure(name, generate(spec))
        assert stats.write_percent == pytest.approx(write_pct, abs=3)
        assert stats.mean_size_kb == pytest.approx(size_kb, rel=0.1)


def test_make_workload_unknown():
    with pytest.raises(ValueError):
        make_workload("bogus")


def test_disksim_round_trip():
    trace = generate(small_spec(num_requests=100))
    buf = io.StringIO()
    write_disksim(trace, buf)
    parsed = parse_disksim(io.StringIO(buf.getvalue()))
    assert len(parsed) == 100
    for orig, back in zip(trace, parsed):
        assert back.is_write == orig.is_write
        assert back.offset_bytes // 512 == orig.offset_bytes // 512
        assert back.arrival_us == pytest.approx(orig.arrival_us, abs=1e-3)


def test_spc_round_trip():
    trace = generate(small_spec(num_requests=100))
    buf = io.StringIO()
    write_spc(trace, buf)
    parsed = parse_spc(io.StringIO(buf.getvalue()))
    assert len(parsed) == 100
    for orig, back in zip(trace, parsed):
        assert back.is_write == orig.is_write
        assert back.size_bytes == orig.size_bytes


def test_disksim_parse_flags():
    line = "1.5 0 100 8 1\n"  # flags bit0 = read
    [req] = parse_disksim([line])
    assert not req.is_write
    assert req.offset_bytes == 100 * 512
    assert req.size_bytes == 8 * 512
    assert req.arrival_us == 1500.0


def test_spc_parse_opcode_case():
    [r] = parse_spc(["0,10,4096,W,0.5\n"])
    assert r.is_write
    [r] = parse_spc(["0,10,4096,r,0.5\n"])
    assert not r.is_write


def test_parsers_skip_comments_and_blank_lines():
    lines = ["# header\n", "\n", "1.0 0 0 1 0\n"]
    assert len(parse_disksim(lines)) == 1


def test_parser_bad_lines_raise():
    with pytest.raises(ValueError):
        parse_disksim(["1.0 0 0\n"])
    with pytest.raises(ValueError):
        parse_spc(["0,1,2\n"])
    with pytest.raises(ValueError):
        parse_spc(["0,10,4096,x,0.5\n"])


def test_zipf_pmf_is_decreasing():
    rng = np.random.default_rng(0)
    z = ZipfSampler(100, 1.0, rng)
    pmf = z.pmf()
    assert np.all(np.diff(pmf) <= 1e-12)
    assert pmf.sum() == pytest.approx(1.0)


def test_zipf_theta_zero_is_uniform():
    rng = np.random.default_rng(0)
    z = ZipfSampler(50, 0.0, rng)
    pmf = z.pmf()
    assert np.allclose(pmf, 1.0 / 50)


def test_zipf_samples_in_range():
    rng = np.random.default_rng(0)
    z = ZipfSampler(10, 0.9, rng)
    samples = z.sample(1000)
    assert samples.min() >= 0
    assert samples.max() < 10


def test_zipf_rank_zero_is_hottest():
    rng = np.random.default_rng(0)
    z = ZipfSampler(20, 1.0, rng)
    samples = z.sample(20000)
    counts = np.bincount(samples, minlength=20)
    assert counts[0] == counts.max()


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        small_spec(write_fraction=1.5)
    with pytest.raises(ValueError):
        small_spec(request_rate_per_s=0)
    with pytest.raises(ValueError):
        small_spec(num_requests=0)
    with pytest.raises(ValueError):
        small_spec(footprint_bytes=16)  # smaller than one chunk


def test_trace_request_validation():
    with pytest.raises(ValueError):
        TraceRequest(0.0, 0, 0, True)
    with pytest.raises(ValueError):
        TraceRequest(-1.0, 0, 1, True)
    with pytest.raises(ValueError):
        TraceRequest(0.0, -1, 1, True)


def test_extra_archetypes_build_and_fit_character():
    """The non-paper archetypes match their documented fingerprints."""
    from repro.traces.analysis import characterize
    from repro.traces.synthetic import EXTRA_TRACE_NAMES

    footprint = 32 * MB
    expectations = {
        "webserver": dict(write_max=0.10, seq_min=0.0),
        "streaming": dict(write_max=0.05, seq_min=0.7),
        "bootstorm": dict(write_max=0.20, seq_min=0.0),
    }
    for name in EXTRA_TRACE_NAMES:
        spec = make_workload(name, num_requests=2000, footprint_bytes=footprint)
        trace = generate(spec)
        assert len(trace) == 2000
        c = characterize(trace)
        rules = expectations[name]
        assert c.write_fraction <= rules["write_max"]
        assert c.sequential_fraction >= rules["seq_min"]


def test_extra_archetypes_replay():
    """The archetypes replay end-to-end (streaming's 64 KB requests need
    a device larger than the tiny unit-test fixture)."""
    from repro.controller.device import SimulatedSSD
    from repro.experiments.config import scaled_geometry
    from repro.traces.stream import io_requests
    from repro.traces.synthetic import EXTRA_TRACE_NAMES

    geometry = scaled_geometry(2, scale=1 / 64)  # 32 MB, 2 KB pages
    for name in EXTRA_TRACE_NAMES:
        spec = make_workload(name, num_requests=300,
                             footprint_bytes=geometry.capacity_bytes // 2)
        ssd = SimulatedSSD(geometry, ftl="dloop")
        ssd.run(io_requests(generate(spec), geometry))
        ssd.verify()
