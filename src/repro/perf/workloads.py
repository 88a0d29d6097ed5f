"""The fixed microbenchmark suite.

Every benchmark is a *deterministic* workload: seeded RNGs, simulated
time only, no dependence on wall clock or iteration order of unordered
containers.  Each returns enough state for the harness to compute a
determinism fingerprint, so the same suite doubles as a correctness
gate (see :mod:`repro.perf.fingerprint`).

Benchmarks deliberately span the simulator's layers:

* ``engine-churn``     — raw event-loop throughput under heavy
  schedule/cancel churn (no FTL, no flash);
* ``mix-<ftl>``        — a 70/30 write/read mix, half sequential, half
  random, straight through the FTL hot path (DLOOP, DFTL, FAST and the
  ideal page map);
* ``gc-steady-dloop``  — random overwrites of a small footprint at high
  utilisation: steady-state GC with copy-back moves dominating;
* ``device-dloop``     — the headline: full stack (engine + controller
  + DLOOP) replaying a randomized request stream, reported in
  engine events/sec.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.perf.fingerprint import engine_fingerprint, ftl_fingerprint

#: (fingerprint, work_units, unit) returned by every benchmark body.
BenchOutcome = Tuple[Dict[str, Any], int, str]


@dataclass(frozen=True)
class Benchmark:
    name: str
    description: str
    #: Benchmark body: ``fn(quick) -> (fingerprint, work_units, unit)``.
    fn: Callable[[bool], BenchOutcome]
    #: The suite's headline number (one benchmark only).
    headline: bool = False


def bench_geometry() -> SSDGeometry:
    """Small fixed geometry shared by the FTL-level benchmarks.

    8 planes over 4 channels, 20 Ki logical pages: big enough for
    realistic GC behaviour, small enough that construction cost does
    not dominate the measurement.
    """
    return SSDGeometry(
        channels=4,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=80,
        pages_per_block=32,
        page_size=2048,
        extra_blocks_percent=5.0,
    )


# ---- engine ----------------------------------------------------------------


def _engine_churn(quick: bool) -> BenchOutcome:
    from repro.sim.engine import Engine

    n = 40_000 if quick else 320_000
    engine = Engine()
    rng = random.Random(20130614)
    throwaway: deque = deque()
    state = {"fired": 0}

    def noop() -> None:
        pass

    def tick() -> None:
        state["fired"] += 1
        # A disposable far-future event plus rolling cancellation keeps
        # the heap populated with dead entries, exercising lazy deletion.
        throwaway.append(engine.schedule_after(10.0 + rng.random(), noop))
        if len(throwaway) > 64:
            engine.cancel(throwaway.popleft())
        if state["fired"] < n:
            engine.schedule_after(rng.random() * 3.0, tick)

    for _ in range(64):
        engine.schedule_after(rng.random(), tick)
    engine.run()
    return engine_fingerprint(engine), engine.events_processed, "events"


# ---- FTL hot paths ---------------------------------------------------------


def _ftl_mix(ftl_name: str, quick: bool, *, ops: int, footprint_frac: float = 0.55) -> BenchOutcome:
    """70/30 write/read mix, alternating sequential runs and random hits."""
    from repro.ftl.registry import create_ftl

    geometry = bench_geometry()
    ftl = create_ftl(ftl_name, geometry, TimingParams())
    num_lpns = geometry.num_lpns
    footprint = int(num_lpns * footprint_frac)
    ftl.bulk_fill(footprint)
    ftl.clock.reset_measurements()

    n = ops // 8 if quick else ops
    rng = random.Random(0x0D100B)
    t = 0.0
    cursor = 0
    for i in range(n):
        if i % 10 < 7:  # write
            if i % 2:
                lpn = rng.randrange(footprint)
            else:
                lpn = cursor
                cursor = (cursor + 1) % footprint
            t = ftl.write_page(lpn, t)
        else:  # read
            t = ftl.read_page(rng.randrange(footprint), t)
    return ftl_fingerprint(ftl, t), n, "pages"


def _gc_steady_dloop(quick: bool) -> BenchOutcome:
    """Random overwrites of a hot footprint: GC-dominated steady state."""
    from repro.ftl.registry import create_ftl

    geometry = bench_geometry()
    ftl = create_ftl("dloop", geometry, TimingParams())
    num_lpns = geometry.num_lpns
    ftl.bulk_fill(int(num_lpns * 0.80))
    ftl.clock.reset_measurements()

    n = 4_000 if quick else 16_000
    hot = int(num_lpns * 0.25)
    rng = random.Random(0x6C0DE)
    t = 0.0
    for _ in range(n):
        t = ftl.write_page(rng.randrange(hot), t)
    return ftl_fingerprint(ftl, t), n, "pages"


# ---- full stack ------------------------------------------------------------


def _device_dloop(quick: bool) -> BenchOutcome:
    """Engine + controller + DLOOP replaying a randomized request mix."""
    from repro.controller.device import SimulatedSSD
    from repro.sim.request import IoOp

    geometry = bench_geometry()
    ssd = SimulatedSSD(geometry, TimingParams(), ftl="dloop")
    ssd.precondition(0.6)

    n = 2_000 if quick else 8_000
    num_lpns = geometry.num_lpns
    footprint = int(num_lpns * 0.55)
    rng = random.Random(0xD10B)
    requests = []
    arrival = 0.0
    for i in range(n):
        arrival += rng.random() * 40.0
        count = 1 + i % 4
        lpn = rng.randrange(max(1, footprint - count))
        op = IoOp.WRITE if rng.random() < 0.7 else IoOp.READ
        requests.append(ssd.page_request(arrival, lpn, count, op))
    end = ssd.run(requests)

    fp = ftl_fingerprint(ssd.ftl, end)
    fp.update(engine_fingerprint(ssd.engine))
    return fp, ssd.engine.events_processed, "events"


def _stream_device_dloop(quick: bool) -> BenchOutcome:
    """Full stack fed through the streaming admission window.

    Same layer stack as ``device-dloop`` but the trace is generated
    lazily (``stream_workload``), admitted through a bounded NCQ window
    (queue_depth=32), and accounted by the O(1)-memory streaming stats —
    the path a multi-million-request replay takes.  The fingerprint
    folds in completed-request and admission-window counts so a
    regression in the admission logic (dropped/duplicated/reordered
    requests) trips the determinism gate, not just the timing numbers.
    """
    from repro.controller.device import SimulatedSSD
    from repro.traces.model import SizeMix, WorkloadSpec
    from repro.traces.stream import stream_io_requests

    geometry = bench_geometry()
    ssd = SimulatedSSD(geometry, TimingParams(), ftl="dloop")
    ssd.precondition(0.6)

    n = 25_000 if quick else 200_000
    spec = WorkloadSpec(
        name="perf-stream",
        num_requests=n,
        write_fraction=0.7,
        request_rate_per_s=25_000.0,
        size_mix=SizeMix((2048, 4096, 8192), (0.5, 0.3, 0.2)),
        footprint_bytes=int(geometry.capacity_bytes * 0.55),
        sequential_fraction=0.2,
        zipf_theta=0.9,
        chunk_bytes=64 * 1024,
        seed=0x57BEA8,
    )
    end = ssd.run_stream(stream_io_requests(spec, geometry), queue_depth=32)

    fp = ftl_fingerprint(ssd.ftl, end)
    fp.update(engine_fingerprint(ssd.engine))
    fp["completed"] = ssd.stats.count
    fp["peak_outstanding"] = ssd.controller.peak_outstanding
    return fp, ssd.engine.events_processed, "events"


BENCHMARKS: Tuple[Benchmark, ...] = (
    Benchmark("engine-churn", "event loop under schedule/cancel churn", _engine_churn),
    Benchmark("mix-dloop", "70/30 write/read mix through DLOOP",
              lambda quick: _ftl_mix("dloop", quick, ops=32_000)),
    Benchmark("mix-dftl", "70/30 write/read mix through DFTL",
              lambda quick: _ftl_mix("dftl", quick, ops=32_000)),
    Benchmark("mix-fast", "70/30 write/read mix through FAST",
              lambda quick: _ftl_mix("fast", quick, ops=16_000)),
    Benchmark("mix-pagemap", "70/30 write/read mix through the ideal page map",
              lambda quick: _ftl_mix("pagemap", quick, ops=32_000)),
    Benchmark("gc-steady-dloop", "steady-state GC, copy-back dominated", _gc_steady_dloop),
    Benchmark("device-dloop", "full stack: engine + controller + DLOOP",
              _device_dloop, headline=True),
    Benchmark("stream-device-dloop",
              "full stack via streaming admission (queue_depth=32)",
              _stream_device_dloop),
)
