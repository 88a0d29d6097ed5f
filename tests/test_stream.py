"""Streaming workload pipeline: generation identity, admission window,
parser duality, streaming stats, and bounded-memory behaviour."""

import random
import tracemalloc

import numpy as np
import pytest

from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.metrics.streaming import (
    DeterministicReservoir,
    RunningMoments,
    StreamingRequestStats,
)
from repro.perf.fingerprint import engine_fingerprint, ftl_fingerprint
from repro.sim.request import IoOp, IoRequest
from repro.traces.model import KB, SizeMix, WorkloadSpec
from repro.traces.parser import (
    iter_disksim,
    iter_spc,
    iter_trace_file,
    parse_disksim,
    parse_spc,
    write_disksim,
    write_spc,
)
from repro.traces.stream import io_requests, stream_workload
from repro.traces.synthetic import financial1, generate
from tests.ftl_cases import ftl_cases, resolve

MB = 1024 * KB


def small_spec(n=2000, seed=7, **overrides):
    base = dict(
        name="t",
        num_requests=n,
        write_fraction=0.6,
        request_rate_per_s=2000.0,
        size_mix=SizeMix((2 * KB, 4 * KB), (0.5, 0.5)),
        footprint_bytes=4 * MB,
        sequential_fraction=0.1,
        zipf_theta=0.9,
        chunk_bytes=64 * KB,
        seed=seed,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


# ---- generation identity ----------------------------------------------------


def test_stream_equals_generate():
    spec = financial1(num_requests=4000)
    assert list(stream_workload(spec)) == generate(spec)


@pytest.mark.parametrize("chunk", [1, 7, 113, 2000, 50_000])
def test_chunk_size_never_changes_the_trace(chunk):
    spec = small_spec()
    assert list(stream_workload(spec, chunk_requests=chunk)) == generate(spec)


def test_bad_chunk_rejected():
    with pytest.raises(ValueError):
        next(stream_workload(small_spec(), chunk_requests=0))


def test_different_seeds_differ():
    assert generate(small_spec(seed=1)) != generate(small_spec(seed=2))


# ---- sequential-continuation cursor (bugfix) --------------------------------


def test_pure_sequential_stream_is_one_contiguous_chain():
    spec = small_spec(n=500, sequential_fraction=1.0,
                      size_mix=SizeMix.fixed(4 * KB), footprint_bytes=1 * MB)
    cursor = 0
    wraps = 0
    for r in stream_workload(spec):
        if cursor + r.size_bytes > spec.footprint_bytes:
            cursor = 0
            wraps += 1
        assert r.offset_bytes == cursor
        cursor += r.size_bytes
    # 500 x 4 KB through a 1 MB footprint must wrap (regression: the old
    # generator silently degraded near-limit sequential requests to
    # random ones instead of wrapping).
    assert wraps >= 1


def test_sequential_cursor_survives_random_interleaving():
    """Sequential requests chain with each other, not with whatever the
    last random request touched (the old single-cursor bug)."""
    spec = small_spec(n=5000, sequential_fraction=0.5)
    cursor = 0
    chained = 0
    for r in stream_workload(spec):
        expected = 0 if cursor + r.size_bytes > spec.footprint_bytes else cursor
        if r.offset_bytes == expected:
            cursor = expected + r.size_bytes
            chained += 1
    # ~half the trace must form the contiguous chain; with one shared
    # cursor the chain is broken by every random request and this
    # fraction collapses towards zero.
    assert chained >= spec.num_requests * 0.4


def test_arrivals_strictly_increase():
    last = -1.0
    for r in stream_workload(small_spec(n=1000)):
        assert r.arrival_us > last
        last = r.arrival_us


# ---- streaming file parsers -------------------------------------------------


def _mini_trace():
    spec = small_spec(n=200)
    return generate(spec)


def test_iter_spc_matches_parse_spc(tmp_path):
    path = str(tmp_path / "t.spc")
    with open(path, "w", encoding="ascii") as handle:
        write_spc(_mini_trace(), handle)
    assert list(iter_spc(path)) == parse_spc(path)


def test_iter_disksim_matches_parse_disksim(tmp_path):
    path = str(tmp_path / "t.dis")
    with open(path, "w", encoding="ascii") as handle:
        write_disksim(_mini_trace(), handle)
    assert list(iter_disksim(path)) == parse_disksim(path)


def test_iter_trace_file_dispatches_by_extension(tmp_path):
    trace = _mini_trace()
    spc = str(tmp_path / "t.spc")
    dis = str(tmp_path / "t.trace")
    with open(spc, "w", encoding="ascii") as handle:
        write_spc(trace, handle)
    with open(dis, "w", encoding="ascii") as handle:
        write_disksim(trace, handle)
    assert list(iter_trace_file(spc)) == parse_spc(spc)
    assert list(iter_trace_file(dis)) == parse_disksim(dis)


# ---- streamed replay == materialized replay ---------------------------------


REPLAY_GEOMETRY = SSDGeometry.from_capacity(8 * MB)


def _replay_spec(n=1200):
    return small_spec(n=n, footprint_bytes=4 * MB, seed=11)


def _page_aligned(trace):
    """``trace`` page-aligned by :func:`io_requests`, as a list."""
    return list(io_requests(trace, REPLAY_GEOMETRY))


def _materialized_run(ftl_name):
    spec = _replay_spec()
    ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl=ftl_name)
    ssd.precondition(0.6)
    end = ssd.run(_page_aligned(generate(spec)))
    fp = ftl_fingerprint(ssd.ftl, end)
    fp.update(engine_fingerprint(ssd.engine))
    return fp, ssd.stats


@pytest.mark.parametrize("ftl_name", ["dloop", "dftl", "fast"])
def test_unbounded_stream_is_fingerprint_identical(ftl_name):
    spec = _replay_spec()
    ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl=ftl_name)
    ssd.precondition(0.6)
    end = ssd.run_stream(io_requests(stream_workload(spec), REPLAY_GEOMETRY))
    fp = ftl_fingerprint(ssd.ftl, end)
    fp.update(engine_fingerprint(ssd.engine))

    ref_fp, ref_stats = _materialized_run(ftl_name)
    assert fp == ref_fp
    assert ssd.stats.count == ref_stats.count
    assert ssd.stats.pages_written == ref_stats.pages_written
    assert ssd.stats.pages_read == ref_stats.pages_read
    # same completions in the same order into the same accumulator
    assert ssd.stats.overall == ref_stats.overall
    assert ssd.stats.reservoir.values == ref_stats.reservoir.values


def test_arrival_tying_an_older_completion():
    """One rule for ties, however the trace is handed over: at equal
    time, what was posted first fires first, and an arrival is posted
    when its predecessor arrives.  An arrival that ties an *older*
    request's completion therefore fires after it — ``run(list)`` used
    to number every arrival up front and fire the arrival first, with a
    different in-flight high-water mark (and ``queue_depth`` counters,
    and ``on_idle``) for the same trace."""
    from repro.obs.tracebus import BUS

    def trace(third_arrival):
        return [IoRequest(0.0, 0, 1, IoOp.WRITE),
                IoRequest(10.0, 1, 1, IoOp.WRITE),
                IoRequest(third_arrival, 2, 1, IoOp.WRITE)]

    probe = trace(1e6)
    SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl="pagemap").run(probe)
    tie = probe[0].completion_us
    assert tie == pytest.approx(251.4)

    def engine_events(run):
        ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl="pagemap")
        names = []

        def subscriber(event):
            if event.category == "engine":
                names.append(event.name.removeprefix("Controller."))

        requests = trace(tie)
        BUS.subscribe(subscriber)
        try:
            end = run(ssd, requests)
        finally:
            BUS.unsubscribe(subscriber)
        return (names, ssd.controller.peak_outstanding,
                [r.completion_us for r in requests], ftl_fingerprint(ssd.ftl, end))

    listed = engine_events(lambda ssd, requests: ssd.run(requests))
    streamed = engine_events(
        lambda ssd, requests: ssd.run_stream(iter(requests), queue_depth=None))
    assert listed == streamed
    assert listed[0] == ["_arrive_streamed", "_arrive_streamed", "_complete",
                         "_arrive_streamed", "_complete", "_complete"]
    assert listed[1] == 2


@pytest.mark.parametrize("ftl_name", ["dloop", "dftl", "fast"])
def test_bounded_queue_depth_stays_legal(ftl_name):
    """NCQ admission changes timing only — FTL state stays coherent
    (sanitized run), every request completes, and the window bound
    actually binds."""
    spec = _replay_spec(n=800)
    ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl=ftl_name, sanitize=True)
    try:
        ssd.precondition(0.6)
        ssd.run_stream(
            io_requests(stream_workload(spec), REPLAY_GEOMETRY), queue_depth=4
        )
    finally:
        report = ssd.sanitizer.finalize()  # detaches from the global BUS
    assert report["violations"] == 0
    assert ssd.stats.count == spec.num_requests
    assert 1 <= ssd.controller.peak_outstanding <= 4
    ssd.verify()


def test_queue_depth_one_serializes():
    spec = _replay_spec(n=300)
    ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl="dloop")
    ssd.precondition(0.6)
    ssd.run_stream(
        io_requests(stream_workload(spec), REPLAY_GEOMETRY), queue_depth=1
    )
    assert ssd.stats.count == spec.num_requests
    assert ssd.controller.peak_outstanding == 1


def test_bad_queue_depth_rejected():
    ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl="dloop")
    with pytest.raises(ValueError):
        ssd.run_stream(iter(()), queue_depth=0)


def test_run_stream_keeps_list_stats_when_asked():
    """Below its capacity the reservoir is the full latency list: every
    successful response, in completion order."""
    spec = _replay_spec(n=200)
    ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl="dloop")
    completed = []
    ssd.controller.on_complete.append(lambda r: completed.append(r.response_us))
    ssd.run_stream(io_requests(stream_workload(spec), REPLAY_GEOMETRY), queue_depth=8)
    assert ssd.stats.reservoir.exact
    assert len(completed) == ssd.stats.reservoir.seen == spec.num_requests
    assert ssd.stats.reservoir.values == completed


# ---- experiment runner integration ------------------------------------------


def test_run_workload_honours_queue_depth():
    """``queue_depth`` bounds the admission window of every run
    (regression: without streaming it was silently ignored)."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_workload

    spec = _replay_spec(n=300)
    config = ExperimentConfig(geometry=REPLAY_GEOMETRY, ftl="dloop",
                              precondition_fill=0.6)
    serial = run_workload(spec, config, queue_depth=1)
    assert serial.extras["stream"] == {
        "queue_depth": 1, "peak_outstanding": 1, "reservoir_exact": True}
    assert serial.mean_response_ms > run_workload(spec, config).mean_response_ms


def _list_replay_metrics(spec, config) -> dict:
    """The reference a ``run_workload`` result must equal: the same
    requests, materialized, through ``SimulatedSSD.run(list)``."""
    from repro.experiments.runner import _steady_ms

    ssd = SimulatedSSD(config.geometry, config.timing, ftl=config.ftl,
                       **config.build_kwargs())
    ssd.precondition(config.precondition_fill)
    ssd.run(_page_aligned(generate(spec)))
    stats, counters = ssd.stats, ssd.counters
    moved = counters.programs + counters.copybacks + ssd.ftl.gc_stats.wasted_pages
    return {
        "mean_response_ms": stats.mean_response_ms(),
        "steady_response_ms": (_steady_ms(stats.reservoir.values)
                               if stats.reservoir.exact else stats.mean_response_ms()),
        "read_response_ms": stats.reads.mean / 1000.0 if stats.reads.count else 0.0,
        "write_response_ms": stats.writes.mean / 1000.0 if stats.writes.count else 0.0,
        "p99_response_ms": stats.percentile_us(99) / 1000.0,
        "write_amplification": moved / stats.pages_written,
        "flash": [counters.reads, counters.programs, counters.copybacks,
                  counters.erases, counters.as_dict()["plane_ops"]],
        "num_requests": stats.count,
        "failed_requests": stats.failed_requests,
    }


def _result_metrics(result) -> dict:
    return {
        "mean_response_ms": result.mean_response_ms,
        "steady_response_ms": result.steady_response_ms,
        "read_response_ms": result.read_response_ms,
        "write_response_ms": result.write_response_ms,
        "p99_response_ms": result.p99_response_ms,
        "write_amplification": result.write_amplification,
        "flash": [result.flash_reads, result.flash_programs, result.copybacks,
                  result.erases, result.plane_ops],
        "num_requests": result.num_requests,
        "failed_requests": result.extras.get("failed_requests", 0),
    }


def _same_bits(result, reference: dict) -> bool:
    return repr(_result_metrics(result)) == repr(reference)


def test_run_workload_stream_mode():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_workload

    spec = _replay_spec(n=600)
    config = ExperimentConfig(geometry=REPLAY_GEOMETRY, ftl="dloop",
                              precondition_fill=0.6)
    result = run_workload(spec, config, queue_depth=8)
    assert result.num_requests == spec.num_requests
    assert result.mean_response_ms > 0
    assert result.extras["stream"]["queue_depth"] == 8
    assert 1 <= result.extras["stream"]["peak_outstanding"] <= 8

    # Unbounded, it reports what a list replay of the same trace does.
    unbounded = run_workload(spec, config)
    assert unbounded.extras["stream"]["queue_depth"] is None
    assert _same_bits(unbounded, _list_replay_metrics(spec, config))


def test_stream_and_materialized_runs_report_the_same_numbers():
    """Up to the reservoir's capacity ``run_workload`` and a list replay
    of the same trace report bit-equal response metrics, the
    steady-state mean included (it windows over the reservoir)."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_workload

    spec = _replay_spec(n=StreamingRequestStats().reservoir.capacity)
    config = ExperimentConfig(geometry=REPLAY_GEOMETRY, ftl="pagemap",
                              precondition_fill=0.6)
    result = run_workload(spec, config)
    assert result.extras["stream"]["reservoir_exact"]
    assert _same_bits(result, _list_replay_metrics(spec, config))
    assert result.steady_response_ms != result.mean_response_ms


@pytest.mark.parametrize("ftl_name", ftl_cases())
def test_run_workload_equals_list_replay_past_the_reservoir(ftl_name):
    """6 000 requests, past the 4 096-slot reservoir: every registry
    entry's ``run_workload`` result equals the list replay's, bit for
    bit, in the response means, p99, write amplification, flash
    counters and failed requests."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_workload

    # A load the device keeps up with: the 1 200-request replay spec
    # at 6 000 requests would queue thousands deep and thrash GC.
    spec = small_spec(n=6000, footprint_bytes=2 * MB, request_rate_per_s=500.0, seed=11)
    name, kwargs = resolve(ftl_name)
    config = ExperimentConfig(geometry=REPLAY_GEOMETRY, ftl=name, ftl_kwargs=kwargs,
                              precondition_fill=0.3)
    result = run_workload(spec, config)
    assert not result.extras["stream"]["reservoir_exact"]
    failed = result.extras.get("failed_requests", 0)
    assert result.num_requests + failed == spec.num_requests
    assert _same_bits(result, _list_replay_metrics(spec, config))


def test_run_simulation_stream_composes_with_crash():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_simulation
    from repro.traces.stream import stream_workload

    spec = _replay_spec(n=400)
    config = ExperimentConfig(geometry=REPLAY_GEOMETRY, ftl="dloop",
                              precondition_fill=0.5)
    result = run_simulation(
        stream_workload(spec), config, queue_depth=4, crash_at_us=15_000.0,
    )
    crash = result.extras["crash"]
    assert crash["at_us"] == 15_000.0
    assert crash["recovered_mappings"] > 0
    # The NCQ window in flight at the power cut is lost; everything else
    # (pre-crash completions + the resumed tail) is accounted.
    assert 0 < result.num_requests <= spec.num_requests


# ---- streaming stats --------------------------------------------------------


def test_running_moments_match_numpy():
    rng = random.Random(3)
    xs = [rng.expovariate(1 / 250.0) for _ in range(5000)]
    m = RunningMoments()
    for x in xs:
        m.push(x)
    assert m.count == len(xs)
    assert m.mean == pytest.approx(float(np.mean(xs)), rel=1e-12)
    assert m.std == pytest.approx(float(np.std(xs)), rel=1e-9)
    assert m.min == min(xs)
    assert m.max == max(xs)


def test_reservoir_exact_until_capacity():
    r = DeterministicReservoir(capacity=1000)
    xs = list(range(1000))
    for x in xs:
        r.push(float(x))
    assert r.exact
    assert r.percentile(50) == float(np.percentile(xs, 50))
    assert r.percentile(99) == float(np.percentile(xs, 99))


def test_reservoir_is_deterministic_and_bounded():
    def fill():
        r = DeterministicReservoir(capacity=64)
        for x in range(10_000):
            r.push(float(x))
        return r

    a, b = fill(), fill()
    assert len(a.values) == 64 and not a.exact
    assert a.values == b.values
    assert a.percentile(50) == b.percentile(50)
    # A uniform sample of 0..9999 should roughly centre its median.
    assert 2000 < a.percentile(50) < 8000


def test_reservoir_rejects_bad_capacity():
    with pytest.raises(ValueError):
        DeterministicReservoir(capacity=0)


def test_reservoir_percentile_empty_returns_zero():
    r = DeterministicReservoir(capacity=16)
    assert r.exact  # nothing evicted from nothing
    for q in (0, 50, 99, 100):
        assert r.percentile(q) == 0.0


def test_reservoir_percentile_single_sample():
    r = DeterministicReservoir(capacity=16)
    r.push(42.5)
    for q in (0, 50, 100):
        assert r.percentile(q) == 42.5


def test_reservoir_percentile_q100_is_max_while_exact():
    r = DeterministicReservoir(capacity=32)
    xs = [7.0, 1.0, 9.5, 3.25]
    for x in xs:
        r.push(x)
    assert r.percentile(100) == max(xs)
    assert r.percentile(0) == min(xs)


def test_reservoir_exact_to_sampled_crossover():
    r = DeterministicReservoir(capacity=8)
    for x in range(8):
        r.push(float(x))
    assert r.exact  # at capacity, nothing evicted yet
    assert r.percentile(100) == 7.0
    r.push(8.0)  # first overflow: sampling starts
    assert not r.exact
    assert len(r.values) == 8  # bounded at capacity
    # Still a valid sample of what was pushed, whatever was evicted.
    assert all(0.0 <= v <= 8.0 for v in r.values)
    assert 0.0 <= r.percentile(50) <= 8.0


def test_streaming_request_stats_summary():
    stats = StreamingRequestStats()
    stats.observe(100.0, is_write=True)
    stats.observe(300.0, is_write=False)
    assert stats.count == 2
    assert stats.writes.count == 1 and stats.reads.count == 1
    assert stats.mean_response_us() == pytest.approx(200.0)
    assert stats.mean_response_ms() == pytest.approx(0.2)
    summary = stats.summary()
    assert summary["requests"] == 2
    assert summary["min_us"] == 100.0 and summary["max_us"] == 300.0
    assert summary["reservoir_exact"] is True


def test_observe_is_the_three_pushes_bit_for_bit():
    """``StreamingRequestStats.observe`` writes ``RunningMoments.push``
    (twice) and ``DeterministicReservoir.push`` out by hand: the same
    floats and the same reservoir, well past the first eviction."""
    capacity = 64
    stats = StreamingRequestStats(reservoir_size=capacity, reservoir_seed=99)
    overall, reads, writes = RunningMoments(), RunningMoments(), RunningMoments()
    reservoir = DeterministicReservoir(capacity, seed=99)
    # Algorithm R over Random.randrange: the spelling both pushes replace
    by_randrange, randrange = [], random.Random(99).randrange
    rng = random.Random(4)
    for seen in range(1, 3 * capacity + 1):
        x = rng.lognormvariate(5.0, 1.5)
        is_write = rng.random() < 0.4
        stats.observe(x, is_write)
        overall.push(x)
        (writes if is_write else reads).push(x)
        reservoir.push(x)
        if seen <= capacity:
            by_randrange.append(x)
        elif (j := randrange(seen)) < capacity:
            by_randrange[j] = x
    assert stats.overall == overall  # dataclass ==: exact float equality
    assert stats.reads == reads and stats.writes == writes
    assert stats.reservoir.seen == reservoir.seen == 3 * capacity
    assert stats.reservoir.values == reservoir.values == by_randrange


# ---- bounded memory ---------------------------------------------------------


def test_stream_generation_memory_is_o_chunk():
    """Iterating the stream must not accumulate O(trace) state."""
    spec = small_spec(n=40_000)

    tracemalloc.start()
    count = 0
    for _ in stream_workload(spec, chunk_requests=1024):
        count += 1
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == spec.num_requests

    tracemalloc.start()
    materialized = generate(spec)
    _, full_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(materialized) == spec.num_requests

    # The lazy path holds one 1024-request block; the materialized path
    # holds 40k TraceRequest objects.  Require a decisive gap so the
    # test stays robust to allocator noise.
    assert stream_peak < full_peak / 4


def test_materialized_run_stats_memory_is_o_capacity():
    """``run(list)`` of three reservoirs' worth of requests keeps only
    the reservoir's response times alive (a latency list per lane would
    hold all of them)."""
    ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl="pagemap")
    ssd.precondition(0.5)
    capacity = ssd.stats.reservoir.capacity
    lpns = REPLAY_GEOMETRY.num_lpns // 2
    requests = [IoRequest(i * 100.0, i % lpns, 1, IoOp.READ) for i in range(3 * capacity)]
    stats_files = [tracemalloc.Filter(True, "*/repro/controller/controller.py"),
                   tracemalloc.Filter(True, "*/repro/metrics/streaming.py")]
    tracemalloc.start()
    try:
        ssd.run(requests)
        held = sum(stat.size for stat in
                   tracemalloc.take_snapshot().filter_traces(stats_files).statistics("filename"))
    finally:
        tracemalloc.stop()
    assert ssd.stats.count == 3 * capacity and not ssd.stats.reservoir.exact
    # one list slot and one float per reservoir sample, plus slack
    assert held < capacity * (8 + 24) * 1.5


# ---- stream-state hygiene on mid-run raises (bugfix) ------------------------


def test_midstream_crash_clears_admission_state():
    """A TortureCrash mid-stream must not leave the NCQ window armed:
    the next materialized run on the same device starts fresh instead
    of inheriting a phantom ``_stream_depth`` (regression)."""
    from repro.sim.request import IoRequest
    from repro.torture.arm import TortureArm, TortureCrash

    spec = _replay_spec(n=400)
    ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl="dloop")
    ssd.precondition(0.6)
    arm = TortureArm().attach(armed=("program", 25))
    try:
        with pytest.raises(TortureCrash):
            ssd.run_stream(
                io_requests(stream_workload(spec), REPLAY_GEOMETRY),
                queue_depth=4,
            )
    finally:
        arm.detach()
    controller = ssd.controller
    assert controller._stream is None
    assert controller._stream_depth is None
    assert controller._stream_window == 0
    assert controller._stream_deferred is False

    # The device is usable after recovery — and the follow-up run is
    # not throttled by the dead stream's queue depth.
    ssd.crash()
    t0 = ssd.engine.now
    before = ssd.stats.count
    reads = [IoRequest(t0 + i, i % REPLAY_GEOMETRY.num_lpns, 1, IoOp.READ)
             for i in range(32)]
    ssd.run(reads)
    assert ssd.stats.count == before + 32
    assert ssd.controller.peak_outstanding > 4


# ---- out-of-order streamed traces (bugfix) ----------------------------------


def _shuffled_requests(n=600, seed=3):
    """A replayable trace whose arrivals are NOT monotone."""
    spec = small_spec(n=n, footprint_bytes=4 * MB, seed=9)
    rng = random.Random(seed)
    trace = generate(spec)
    rng.shuffle(trace)
    return _page_aligned(trace)


def test_unordered_stream_raises_by_default():
    from repro.controller.controller import StreamOrderError

    ssd = SimulatedSSD(REPLAY_GEOMETRY, TimingParams(), ftl="dloop")
    ssd.precondition(0.6)
    with pytest.raises(StreamOrderError, match=r"streamed arrival [\d.]+ precedes "
                       r"predecessor [\d.]+; sort the trace$"):
        ssd.run_stream(iter(_shuffled_requests()))
    # The aborted stream leaves no admission state behind.
    assert ssd.controller._stream is None
    assert ssd.controller._stream_depth is None


