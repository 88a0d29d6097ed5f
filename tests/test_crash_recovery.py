"""Power-loss recovery (`SimulatedSSD.crash()`).

A crash throws away everything volatile — queued engine events, the
DRAM write buffer, mapping caches, allocator cursors — and rebuilds
the logical-to-physical mapping from on-flash OOB owner metadata (plus
the MapJournal for hybrid FTLs).  The contracts tested here:

* the recovered page table equals the pre-crash table (flash is
  non-volatile; only buffered/in-flight data may be lost);
* the device keeps serving IO after recovery;
* the whole crash/recover/resume procedure is deterministic — two
  fresh devices driven identically produce identical fingerprints;
* the sanitizer's shadow model stays coherent across the boundary,
  with and without fault injection.
"""

import random

import numpy as np
import pytest

from repro.controller.device import SimulatedSSD
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_simulation
from repro.faults import FaultConfig
from repro.flash.geometry import SSDGeometry
from repro.perf.fingerprint import ftl_fingerprint
from repro.sim.request import IoOp, IoRequest
from repro.traces.stream import stream_workload
from repro.traces.synthetic import generate, make_workload


RECOVERABLE_FTLS = ("dloop", "dftl", "fast")
CRASH_POINTS_US = (50_000.0, 150_000.0, 400_000.0)


def _workload(num_lpns: int, n: int = 1500, seed: int = 31):
    rng = random.Random(seed)
    space = max(1, int(num_lpns * 0.6))
    t = 0.0
    requests = []
    for _ in range(n):
        t += rng.expovariate(1 / 350.0)
        op = IoOp.WRITE if rng.random() < 0.7 else IoOp.READ
        requests.append(IoRequest(t, rng.randrange(space), 1, op))
    return requests


def _crash_resume(small_geometry, name, crash_at_us, *, faults=None,
                  write_buffer_pages=None, sanitize=True):
    """Drive a fresh device through crash-at-t and resume; return the
    device plus the crash summary."""
    ssd = SimulatedSSD(small_geometry, ftl=name, sanitize=sanitize,
                       faults=faults, write_buffer_pages=write_buffer_pages)
    ssd.precondition(0.5)
    requests = _workload(small_geometry.num_lpns)
    info, rest = ssd.run_with_crash(requests, crash_at_us)
    ssd.run(rest)
    if ssd.sanitizer is not None:
        ssd.sanitizer.finalize()
    return ssd, info


@pytest.mark.parametrize("name", RECOVERABLE_FTLS)
@pytest.mark.parametrize("crash_at_us", CRASH_POINTS_US)
def test_recovered_table_matches_pre_crash(small_geometry, name, crash_at_us):
    ssd = SimulatedSSD(small_geometry, ftl=name, sanitize=True)
    ssd.precondition(0.5)
    requests = _workload(small_geometry.num_lpns)
    ssd.controller.submit_many(
        [r for r in requests if r.arrival_us < crash_at_us])
    ssd.engine.run(until=crash_at_us)
    snapshot = np.array(ssd.ftl.page_table, dtype=np.int64).copy()

    info = ssd.crash()
    assert info["at_us"] == crash_at_us
    assert info["recovered_mappings"] == int(np.count_nonzero(snapshot != -1))
    assert np.array_equal(np.array(ssd.ftl.page_table, dtype=np.int64),
                          snapshot)
    ssd.verify()

    # The device stays usable: resume the rest of the trace.
    ssd.run([r for r in requests if r.arrival_us >= crash_at_us])
    ssd.verify()
    assert ssd.sanitizer.finalize()["violations"] == 0


@pytest.mark.parametrize("name", RECOVERABLE_FTLS)
def test_crash_recovery_is_reproducible(small_geometry, name):
    """Same trace + same crash point on two fresh devices ⇒ identical
    post-resume fingerprints (recovery is deterministic)."""
    crash_at = CRASH_POINTS_US[1]
    a, info_a = _crash_resume(small_geometry, name, crash_at)
    b, info_b = _crash_resume(small_geometry, name, crash_at)
    assert info_a == info_b
    assert ftl_fingerprint(a.ftl, a.engine.now) == \
           ftl_fingerprint(b.ftl, b.engine.now)


@pytest.mark.parametrize("name", RECOVERABLE_FTLS)
def test_crash_with_faults_across_boundary(small_geometry, name):
    """Faults before *and* after the crash; the shadow model and the
    FTL's own integrity check stay clean across the boundary."""
    config = FaultConfig(seed=17, program_fail_rate=0.01,
                         read_error_rate=0.02, read_uncorrectable_rate=0.002,
                         program_fails_to_retire=2)
    ssd, info = _crash_resume(small_geometry, name, CRASH_POINTS_US[1],
                              faults=config)
    assert info["recovered_mappings"] > 0
    ssd.verify()
    # both run segments saw traffic; fault accounting accumulated
    assert ssd.faults.plan.program_decisions > 0
    assert ssd.faults.plan.read_decisions > 0


def test_crash_drops_write_buffer(small_geometry):
    """Unflushed buffered writes are lost data, reported as such."""
    ssd = SimulatedSSD(small_geometry, ftl="dloop", write_buffer_pages=8)
    ssd.precondition(0.5)
    # Buffer a few writes at t=0 without letting the engine run them
    # to completion: submit and crash immediately.
    writes = [IoRequest(float(i), i, 1, IoOp.WRITE) for i in range(4)]
    ssd.controller.submit_many(writes)
    ssd.engine.run(until=10.0)
    info = ssd.crash()
    assert info["lost_buffered_pages"] > 0
    assert len(ssd.write_buffer) == 0
    ssd.verify()


def test_crash_clears_pending_events(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="dloop")
    ssd.precondition(0.5)
    requests = _workload(small_geometry.num_lpns, n=400)
    ssd.controller.submit_many(requests)
    ssd.engine.run(until=requests[10].arrival_us)
    info = ssd.crash()
    assert info["dropped_events"] > 0
    assert ssd.controller.outstanding == 0
    # the engine is empty: running again returns immediately
    assert ssd.engine.run() == ssd.engine.now


def test_crash_then_power_cycle_round_trip(small_geometry):
    """crash() composes with the existing power_cycle() path."""
    ssd = SimulatedSSD(small_geometry, ftl="dloop", sanitize=True)
    ssd.precondition(0.5)
    ssd.run(_workload(small_geometry.num_lpns, n=600))
    table = np.array(ssd.ftl.page_table, dtype=np.int64).copy()
    ssd.crash()
    ssd.power_cycle()
    assert np.array_equal(np.array(ssd.ftl.page_table, dtype=np.int64), table)
    assert ssd.sanitizer.finalize()["violations"] == 0


# ---- crash replays through the runner --------------------------------------


class _CompletedArrivals:
    """Records the arrival time of every completed host request."""

    def __init__(self) -> None:
        self.arrivals = []

    def __call__(self, event) -> None:
        if event.category == "host" and event.name in ("read", "write", "trim"):
            self.arrivals.append(event.ts_us)


@pytest.mark.parametrize("queue_depth", (None, 8))
@pytest.mark.parametrize("on_arrival", (False, True), ids=("between", "on-arrival"))
def test_crash_replay_completes_every_request_from_the_crash_on(queue_depth, on_arrival):
    """The request arriving after the power cut is not lost with it
    (regression: streamed admission had already pulled it into the event
    queue, and the crash dropped it)."""
    # 32 MB keeps up with the trace: the window is never full, so
    # admission pulls each successor as its predecessor arrives.
    geometry = SSDGeometry.from_capacity(32 * 2**20)
    spec = make_workload("financial1", num_requests=600,
                         footprint_bytes=geometry.capacity_bytes // 2, seed=5)
    arrivals = [r.arrival_us for r in generate(spec)]
    crash_at = arrivals[300] if on_arrival else (arrivals[299] + arrivals[300]) / 2
    probe = _CompletedArrivals()
    result = run_simulation(
        stream_workload(spec),
        ExperimentConfig(geometry=geometry, ftl="dloop", precondition_fill=0.5),
        crash_at_us=crash_at, queue_depth=queue_depth, probes=[probe],
    )
    assert result.extras["crash"]["at_us"] == crash_at
    assert result.extras["stream"]["queue_depth"] == queue_depth
    assert (sorted(a for a in probe.arrivals if a >= crash_at)
            == [a for a in arrivals if a >= crash_at])
    assert "failed_requests" not in result.extras
