"""One admission path, one event order: ``run(list)`` is a stable sort
plus streamed admission, whoever hands the trace over and however."""

import random
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.background import BackgroundGc
from repro.controller.controller import StreamArmedError
from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import Ftl
from repro.lint.sanitizer import SanitizerError
from repro.obs.tracebus import BUS
from repro.perf.fingerprint import ftl_fingerprint
from repro.sim.request import IoOp, IoRequest
from repro.torture.arm import TortureArm, TortureCrash
from tests.ftl_cases import ftl_cases, resolve

MB = 2**20
GEOMETRY = SSDGeometry.from_capacity(8 * MB)
ARRIVAL = attrgetter("arrival_us")


def _device(ftl_name="pagemap", **kwargs):
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl=ftl_name, **kwargs)
    ssd.precondition(0.5)
    return ssd


#: conftest's ``small_geometry``: 512 logical pages, so forty requests on
#: a device filled to 65 % reach foreground and idle-time GC.
TINY = SSDGeometry(
    channels=2, packages_per_channel=1, chips_per_package=1, dies_per_chip=1,
    planes_per_die=2, blocks_per_plane=16, pages_per_block=8, page_size=256,
    extra_blocks_percent=25.0,
)


def _observe(ftl_name, rows, run):
    """Everything a run shows: the whole TraceBus capture, request stats,
    counters, fingerprint, in-flight high-water mark, completions."""
    name, kwargs = resolve(ftl_name)
    ssd = SimulatedSSD(TINY, TimingParams(), ftl=name, **kwargs)
    if type(ssd.ftl)._gc_exclude is not Ftl._gc_exclude:
        # the log-block family has no background pass to drive
        ssd.background_gc = BackgroundGc(ssd.engine, ssd.ftl, ssd.controller)
    ssd.precondition(0.65)
    requests = [IoRequest(float(t), lpn, pages, op) for t, lpn, pages, op in rows]
    with BUS.capture() as events:
        end = run(ssd, requests)
    stats = ssd.stats
    return {
        "events": events,
        "stats": (stats.overall, stats.reads, stats.writes, stats.errors,
                  stats.reservoir.seen, stats.reservoir.values, stats.pages_read,
                  stats.pages_written, stats.pages_trimmed, stats.failed_requests),
        "counters": ssd.counters.as_dict(),
        "fingerprint": ftl_fingerprint(ssd.ftl, end),
        "peak_outstanding": ssd.controller.peak_outstanding,
        "completions": [(r.arrival_us, r.start_lpn, r.completion_us) for r in requests],
        "streamed": all(r.streamed for r in requests),
    }


def _listed(ssd, requests):
    return ssd.run(requests)


def _streamed(ssd, requests):
    return ssd.run_stream(iter(sorted(requests, key=ARRIVAL)), queue_depth=None)


# Integer microseconds, in no order: duplicate timestamps and arrivals
# tying a completion (a program is 251.4 us after its arrival, a read
# 76.4) are the common case; the far instants leave idle gaps.
integer_rows = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 1500),
                  st.sampled_from([251, 502, 80_000, 80_251, 200_000])),
        st.integers(0, int(TINY.num_lpns * 0.55)),
        st.integers(1, 4),
        st.sampled_from([IoOp.READ, IoOp.WRITE, IoOp.WRITE, IoOp.TRIM]),
    ),
    min_size=1, max_size=40,
)


@pytest.mark.parametrize("ftl_name", ftl_cases())
@settings(max_examples=25, deadline=None)
@given(rows=integer_rows)
def test_list_and_stream_are_one_run(ftl_name, rows):
    """``run(list)`` in any input order == ``run_stream`` over the
    stably sorted list, unbounded: event for
    event (engine dispatches with their sequence numbers, ``queue_depth``
    counters, background GC passes), stats, counters and fingerprint."""
    listed = _observe(ftl_name, rows, _listed)
    assert listed == _observe(ftl_name, rows, _streamed)
    assert listed["streamed"]
    assert any(e.category == "counter" and e.name == "queue_depth"
               for e in listed["events"])


@pytest.mark.parametrize(
    "ftl_name", ["dftl", "dloop", "dloop-hc", "dloop-nocb", "pagemap"])
def test_idle_time_gc_sees_one_order(ftl_name):
    """Bursts of tie-rich integer arrivals with idle gaps between them:
    ``on_idle`` fires at the same instants either way, so background
    passes land in the same places of the same capture."""
    rng = random.Random(5)
    rows, clock = [], 0
    for _ in range(6):
        for _ in range(25):
            clock += rng.choice([0, 0, 100, 251, 300])
            rows.append((clock, rng.randrange(int(TINY.num_lpns * 0.55)),
                         rng.randrange(1, 4),
                         rng.choice([IoOp.WRITE, IoOp.WRITE, IoOp.READ])))
        clock += 100_000
    rng.shuffle(rows)
    listed = _observe(ftl_name, rows, _listed)
    assert listed == _observe(ftl_name, rows, _streamed)
    passes = [e for e in listed["events"] if e.name == "background_pass"]
    assert passes and listed["peak_outstanding"] > 4


def _float_trace(n, seed, start=0.0):
    rng = random.Random(seed)
    clock = start
    out = []
    for _ in range(n):
        clock += rng.random() * 120.0
        out.append(IoRequest(clock, rng.randrange(GEOMETRY.num_lpns - 4),
                             rng.randrange(1, 5),
                             rng.choice([IoOp.READ, IoOp.WRITE, IoOp.WRITE])))
    return out


def _summary(ssd, requests, end):
    return (
        [(r.arrival_us, r.start_lpn, r.completion_us) for r in requests],
        sorted(ssd.stats.reservoir.values),
        ssd.counters.as_dict(),
        ftl_fingerprint(ssd.ftl, end),
        ssd.controller.peak_outstanding,
        ssd.engine.events_processed,
    )


@pytest.mark.parametrize("pause_index", [0, 7, 150, 299])
def test_batch_joins_a_paused_run_in_arrival_order(pause_index):
    """``run(a, until=T)`` then ``run(b)`` == one ``run(a + b)``: ``b``
    interleaves with the unadmitted tail of ``a``, some of it ahead of
    the arrival already posted."""
    def halves():
        trace = _float_trace(300, seed=5)
        return trace[0::2], trace[1::2], trace

    a, b, whole = halves()
    one = _device()
    one_summary = _summary(one, whole, one.run(a + b))

    a, b, whole = halves()
    two = _device()
    pause = whole[pause_index].arrival_us
    b_late = [r for r in b if r.arrival_us >= pause]
    two.run(a + [r for r in b if r.arrival_us < pause], until=pause)
    # paused past the last arrival of ``a``, there is no stream to join
    assert (two.controller._stream is None) == (pause_index == 299)
    assert two.engine.pending <= two.controller.outstanding + 1
    end = two.run(b_late)
    assert _summary(two, whole, end) == one_summary
    assert two.controller._stream is None


def _spy_on_arrivals(ssd):
    """Record the LPN of every request as the controller serves it."""
    served = []
    arrive = ssd.controller._arrive

    def spy(request):
        served.append(request.start_lpn)
        arrive(request)

    ssd.controller._arrive = spy
    return served


def test_joining_batch_ties_go_behind_what_was_submitted_first():
    ssd = _device()
    served = _spy_on_arrivals(ssd)
    ssd.run([IoRequest(0.0, 0, 1, IoOp.READ), IoRequest(500.0, 1, 1, IoOp.READ),
             IoRequest(500.0, 2, 1, IoOp.READ), IoRequest(900.0, 3, 1, IoOp.READ)],
            until=100.0)
    # lpn 1 is posted; 300 us precedes it, the 500s and 900 go behind
    # the first batch's requests of the same instant
    ssd.run([IoRequest(900.0, 7, 1, IoOp.READ), IoRequest(500.0, 5, 1, IoOp.READ),
             IoRequest(300.0, 4, 1, IoOp.READ), IoRequest(500.0, 6, 1, IoOp.READ)])
    assert served == [0, 4, 1, 2, 5, 6, 3, 7]
    assert ssd.stats.count == 8 and ssd.controller._stream is None


def test_same_time_batch_keeps_submission_order():
    """The stable sort is what the heap's ``(time, seq)`` key did."""
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl="pagemap")
    served = _spy_on_arrivals(ssd)
    ssd.run([IoRequest(3.0, lpn, 1, IoOp.WRITE) for lpn in (5, 2, 9, 0, 7)]
            + [IoRequest(1.0, 11, 1, IoOp.WRITE)])
    assert served == [11, 5, 2, 9, 0, 7]


def test_batch_interleaves_with_single_submissions():
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl="pagemap")
    served = _spy_on_arrivals(ssd)
    ssd.submit(IoRequest(5.0, 5, 1, IoOp.WRITE))
    ssd.submit(IoRequest(15.0, 15, 1, IoOp.WRITE))
    ssd.run([IoRequest(10.0, 10, 1, IoOp.WRITE), IoRequest(1.0, 1, 1, IoOp.WRITE),
             IoRequest(20.0, 20, 1, IoOp.WRITE)])
    assert served == [1, 5, 10, 15, 20]


def test_empty_batch_is_a_noop_even_beside_an_armed_stream():
    ssd = _device()
    assert ssd.controller.submit_many([]) == 0
    assert ssd.engine.pending == 0 and ssd.controller._stream is None
    trace = _float_trace(50, seed=2)
    ssd.run_stream(iter(trace), queue_depth=2, until=trace[10].arrival_us)
    armed = ssd.controller._stream
    assert armed is not None
    ssd.run(until=trace[20].arrival_us)
    assert ssd.controller._stream is armed
    ssd.run()
    assert ssd.stats.count == 50


def test_arrival_before_the_clock_raises_before_anything_is_admitted():
    ssd = _device()
    ssd.run([IoRequest(5_000.0, 0, 1, IoOp.WRITE)])
    now = ssd.engine.now
    batch = [IoRequest(now + 10.0, 1, 1, IoOp.WRITE), IoRequest(now - 1.0, 2, 1, IoOp.WRITE)]
    with pytest.raises(ValueError, match="cannot schedule at .* before now"):
        ssd.run(batch)
    assert ssd.engine.pending == 0
    assert ssd.controller._stream is None
    assert not any(r.streamed for r in batch)
    assert ssd.stats.count == 1


# ---- a raise mid-run leaves no admission state behind ------------------------


def test_crash_out_of_a_batch_run_leaves_admission_clean():
    ssd = _device("dloop")
    arm = TortureArm().attach(armed=("program", 25))
    try:
        with pytest.raises(TortureCrash):
            ssd.run(_float_trace(400, seed=1))
    finally:
        arm.detach()
    assert ssd.controller._stream is None
    assert ssd.controller._stream_window == 0
    ssd.crash()
    before = ssd.stats.count
    follow_up = _float_trace(40, seed=3, start=ssd.engine.now)
    ssd.run(follow_up)
    assert ssd.stats.count == before + 40
    assert ssd.controller._stream is None and ssd.engine.pending == 0
    ssd.verify()


def test_sanitizer_error_out_of_a_batch_run_leaves_admission_clean():
    ssd = _device("dloop", sanitize=True)

    def rewind_the_clock(request):
        if ssd.stats.count == 20:  # an engine event from the past: event-order
            BUS.emit("engine", "dispatch", ssd.engine.now - 50.0, 0.0, {"seq": 0},
                     None, "i")

    ssd.controller.on_complete.append(rewind_the_clock)
    try:
        with pytest.raises(SanitizerError, match="event-order"):
            ssd.run(_float_trace(200, seed=4))
    finally:
        ssd.sanitizer.detach()
    assert ssd.stats.count == 20
    assert ssd.controller._stream is None


# ---- no silently dropped tail ---------------------------------------------------


def test_second_stream_on_an_armed_controller_is_a_typed_error():
    ssd = _device()
    trace = _float_trace(60, seed=8)
    ssd.run_stream(iter(trace), queue_depth=4, until=trace[20].arrival_us)
    in_flight = ssd.controller._stream_window
    with pytest.raises(StreamArmedError, match=rf"{in_flight} admitted requests in "
                       r"flight .* unadmitted tail"):
        ssd.run_stream(iter(_float_trace(5, seed=9, start=ssd.engine.now)))
    # a batch cannot join a bounded window either
    with pytest.raises(StreamArmedError):
        ssd.run(_float_trace(5, seed=9, start=ssd.engine.now))
    # nothing was dropped or consumed by the refusals
    ssd.engine.run()
    assert ssd.stats.count == 60
    assert [r.completion_us >= r.arrival_us for r in trace] == [True] * 60


def test_exhausted_stream_may_be_followed_by_another():
    ssd = _device()
    trace = _float_trace(30, seed=8)
    # paused between the last admission and its arrival: nothing is left
    ssd.run_stream(iter(trace), until=trace[-1].arrival_us - 1e-3)
    assert ssd.controller._stream is not None and trace[-1].streamed
    more = _float_trace(10, seed=9, start=trace[-1].arrival_us)
    ssd.run_stream(iter(more), queue_depth=4)
    assert ssd.stats.count == 40
    assert ssd.controller._stream_window == 0


def test_window_counts_in_flight_requests_across_streams():
    """A batch still in flight when a bounded stream starts keeps its
    slots: the window is never reset under admitted requests."""
    ssd = _device()
    burst = [IoRequest(0.0, lpn, 4, IoOp.WRITE) for lpn in range(0, 64, 4)]
    ssd.run(burst, until=1.0)
    assert ssd.controller._stream is None and ssd.controller.outstanding == 16
    more = [IoRequest(2.0 + i, 100 + i, 1, IoOp.WRITE) for i in range(8)]
    ssd.run_stream(iter(more), queue_depth=4)
    assert ssd.controller._stream_window == 0
    assert ssd.stats.count == 24
    # the stream waited for the burst to drain below its depth
    assert min(r.completion_us for r in more) > sorted(
        r.completion_us for r in burst)[-4]
