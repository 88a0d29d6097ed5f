"""The flat per-request path: inlined admission and heap posts held to
their call forms, the wrapped-seam contract perfbench relies on, and a
deterministic call budget per request."""

import heapq
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.controller import Controller
from repro.controller.device import SimulatedSSD
from repro.experiments.config import scaled_geometry
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.lint.sanitizer import SimSanitizer
from repro.metrics.streaming import StreamingRequestStats
from repro.obs.tracebus import BUS
from repro.sim.engine import Engine
from repro.sim.request import IoOp, IoRequest
from repro.tenancy import TenantSpec, TrafficModel, build_tenancy, drr_merge
from repro.traces.stream import stream_io_requests
from repro.traces.synthetic import make_workload

MB = 2**20
GEOMETRY = SSDGeometry.from_capacity(8 * MB)


# ---- inlined pushes == Engine.post -------------------------------------------


class PostingController(Controller):
    """Streamed admission as the composition it is written from:
    ``_admit`` (which posts through ``Engine.post``), then ``_arrive``."""

    def _arrive_streamed(self, request):
        self._admit()
        self._arrive(request)


def _entry_key(entry):
    time, seq, callback, request = entry
    return (time, seq, callback.__name__, request.arrival_us, request.start_lpn,
            request.page_count, request.op, request.completion_us)


request_lists = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 5.0, 40.0, 251.4, 400.0]),  # gaps; 0 = tie
        st.integers(0, 63),
        st.integers(1, 4),
        st.sampled_from([IoOp.READ, IoOp.WRITE, IoOp.TRIM]),
    ),
    min_size=1, max_size=30,
)


def _requests(rows):
    clock = 0.0
    out = []
    for gap, lpn, pages, op in rows:
        clock += gap
        out.append(IoRequest(clock, lpn, pages, op))
    return out


@settings(max_examples=60, deadline=None)
@given(rows=request_lists, depth=st.sampled_from([None, 1, 2, 5]))
def test_inlined_posts_leave_the_entries_engine_post_leaves(rows, depth):
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl="pagemap")
    ref = SimulatedSSD(GEOMETRY, TimingParams(), ftl="pagemap")
    ref.controller = PostingController(ref.engine, ref.ftl)
    ssd.controller.submit_stream(iter(_requests(rows)), queue_depth=depth)
    ref.controller.submit_stream(iter(_requests(rows)), queue_depth=depth)
    engine = ssd.engine
    # A shadow heap fed through Engine.post with whatever the controller
    # pushed: same tuples, same sequence numbers, no past-time entry.
    shadow = Engine()
    seen = 0
    while True:
        fresh = sorted((e for e in engine._heap if e[1] >= seen), key=lambda e: e[1])
        shadow._now = engine.now
        for time, seq, callback, request in fresh:
            assert seq == seen
            shadow.post(time, callback, request)
            seen += 1
        assert sorted(shadow._heap) == sorted(engine._heap)
        assert (sorted(map(_entry_key, engine._heap))
                == sorted(map(_entry_key, ref.engine._heap)))
        assert engine.pending == ref.engine.pending == len(engine._heap)
        if not engine.step():
            break
        ref.engine.step()
        heapq.heappop(shadow._heap)
    assert not ref.engine.step()
    assert ssd.stats.count + ssd.stats.failed_requests == len(rows)
    assert ssd.controller.outstanding == 0
    assert ssd.controller.peak_outstanding == ref.controller.peak_outstanding
    assert ssd.stats.reservoir.values == ref.stats.reservoir.values


def test_completion_before_now_still_raises_posts_error():
    """The completion push keeps ``Engine.post``'s past-time guard."""
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl="dloop", faults={})
    ssd.ftl.drain_retirements = lambda completion: -1.0
    for run in (lambda r: ssd.run_stream(iter(r)), ssd.run):
        arrival = ssd.engine.now + 5.0
        by_post = Engine()
        by_post._now = arrival
        with pytest.raises(ValueError) as posted:
            by_post.post(-1.0, print, None)
        with pytest.raises(ValueError) as raised:
            run([IoRequest(arrival, 0, 1, IoOp.WRITE)])
        assert str(raised.value) == str(posted.value)
        ssd.engine.clear_pending()
        ssd.controller.outstanding = 0


def test_late_successor_is_admitted_at_now_not_in_the_past():
    """A successor whose arrival already passed (its predecessor was
    deferred by a full window) enters at the current clock: the clamp
    is the inlined arrival push's past-time guard."""
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl="pagemap")
    requests = [IoRequest(float(i), i, 1, IoOp.WRITE) for i in range(4)]
    fired = []
    arrive = ssd.controller._arrive

    def spy(request):
        fired.append((ssd.engine.now, request.arrival_us))
        arrive(request)

    ssd.controller._arrive = spy
    ssd.run_stream(iter(requests), queue_depth=1)
    assert [arrival for _, arrival in fired] == [0.0, 1.0, 2.0, 3.0]
    assert all(now >= arrival for now, arrival in fired)
    # served back to back: each enters when its predecessor completes
    assert [now for now, _ in fired[1:]] == [r.completion_us for r in requests[:-1]]


def test_event_queue_is_bounded_by_the_window():
    """``run(list)`` keeps the in-flight requests and one successor in
    the event queue, never the batch: pre-scheduling every arrival held
    up to 1 999 entries here (37 999 on perfbench's ``build_fast_mat``,
    where the in-flight peak is 19)."""
    geometry = scaled_geometry(8, scale=1 / 32)
    ssd = SimulatedSSD(geometry, ftl="dloop", stats_interval_us=20_000.0)
    ssd.precondition(0.45)
    spec = make_workload("build", 2000, int(geometry.capacity_bytes * 0.25))
    requests = list(stream_io_requests(spec, geometry))
    controller, engine = ssd.controller, ssd.engine
    high_water = [0]

    def sample(request):
        # completions of the requests in flight + the posted successor
        # + the sampler's armed tick
        assert len(engine._heap) <= controller.outstanding + 2
        high_water[0] = max(high_water[0], len(engine._heap))

    controller.on_complete.append(sample)
    ssd.run(requests)
    assert ssd.stats.count == 2000
    assert 2 < high_water[0] <= controller.peak_outstanding + 1 < 40


# ---- wrapped seams (what perfbench.rep._wrap_layers does) --------------------


class _Counting:
    """An instance-attribute wrapper that counts calls (and pages)."""

    def __init__(self, fn, pages_of=None):
        self.fn, self.pages_of = fn, pages_of
        self.calls = self.pages = 0

    def __call__(self, *args):
        self.calls += 1
        if self.pages_of is not None:
            self.pages += self.pages_of(*args)
        return self.fn(*args)


def _wrap(obj, name, pages_of=None):
    wrapper = _Counting(getattr(obj, name), pages_of)
    setattr(obj, name, wrapper)
    return wrapper


def _tenant_source(requested):
    """A two-tenant fleet, its merged stream and how many requests it holds."""
    model = TrafficModel(
        tenants=(TenantSpec("a", "exchange", weight=2.0), TenantSpec("b", "exchange")),
        total_requests=requested,
    )
    tenancy = build_tenancy(GEOMETRY, model)
    # the popularity split rounds per tenant
    return tenancy, drr_merge(tenancy.queues), sum(model.tenant_request_counts())


@pytest.mark.parametrize("admission", ["stream", "list"])
def test_wrapped_seams_see_every_request_and_page(admission):
    """Hooks are read where they are used: wrappers installed as
    instance attributes after construction see every call, and a
    ``reset_measurements()`` mid-run (which replaces ``controller.stats``)
    hands over to the new object at the very next completion."""
    ssd = SimulatedSSD(GEOMETRY, TimingParams(), ftl="dloop")
    ssd.precondition(0.5)
    tenancy, source, total = _tenant_source(600)
    # stop about half-way through the trace, in simulated time
    midpoint = [r.arrival_us for r in _tenant_source(600)[1]][total // 2]
    if admission == "list":
        source = list(source)
    pages_of = lambda lpns, now: len(lpns)  # noqa: E731
    ftl, clock = ssd.ftl, ssd.ftl.clock
    reads = _wrap(ftl, "read_pages", pages_of)
    writes = _wrap(ftl, "write_pages", pages_of)
    flash = {name: _wrap(clock, name) for name in
             ("read_page", "program_page", "inter_plane_copy", "copy_back")}
    routed = _wrap(tenancy.router, "on_complete")
    tenancy.router.attach(ssd.controller)
    first = _wrap(ssd.controller.stats, "observe")

    def run(until):
        if admission == "stream":
            return ssd.run_stream(source, queue_depth=32, until=until)
        return ssd.run(source, until=until)

    run(midpoint)
    assert 0 < first.calls < total
    c = ssd.counters
    before = c.reads, c.programs, c.interplane_copies, c.copybacks
    pages_before = ssd.stats.pages_read, ssd.stats.pages_written
    ssd.reset_measurements()
    second = _wrap(ssd.controller.stats, "observe")
    ssd.engine.run()

    assert first.calls + second.calls == total
    assert second.calls == ssd.stats.count
    assert routed.calls == total
    assert reads.calls + writes.calls == total
    assert reads.pages == pages_before[0] + ssd.stats.pages_read
    assert writes.pages == pages_before[1] + ssd.stats.pages_written
    counters = ssd.counters
    copies = before[2] + counters.interplane_copies
    assert flash["inter_plane_copy"].calls == copies
    assert flash["copy_back"].calls == before[3] + counters.copybacks
    assert flash["read_page"].calls == before[0] + counters.reads - copies
    assert flash["program_page"].calls == before[1] + counters.programs - copies
    assert ssd.engine.pending == 0 and ssd.controller.outstanding == 0


# ---- call budget --------------------------------------------------------------


def _python_frames(run) -> int:
    """Python frames ``run()`` enters, itself included."""
    calls = [0]

    def count(frame, event, arg):
        # every Python frame but the import machinery's (run_stream
        # imports lazily; what that costs depends on what ran before)
        if event == "call" and not frame.f_code.co_filename.startswith("<frozen"):
            calls[0] += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0]


def test_python_calls_per_request_budget():
    """Python-level frames per request of a streamed financial2 replay
    (82 % one-page reads) on DLOOP, reservoir past its capacity.

    Deterministic (a count, not a timing).  The parent of the change
    that flattened this path measured 17.19 calls per request here
    (16 per one-page CMT-hit read: generator resume, ``IoRequest``
    ``__init__`` + ``__post_init__``, ``_arrive_streamed``, ``_admit``,
    ``post``, ``_arrive``, ``read_pages``, ``read_page``,
    ``charge_lookup``, ``clock.read_page``, ``post``, ``_complete``,
    ``observe``, ``randrange``, ``_randbelow``); the flat path measures
    12.44 (11 per such read).
    """
    n = 2000
    geometry = scaled_geometry(8, scale=1 / 32)
    ssd = SimulatedSSD(geometry, ftl="dloop")
    ssd.precondition(0.45)
    ssd.controller.stats = StreamingRequestStats(reservoir_size=256)
    spec = make_workload("financial2", n, int(geometry.capacity_bytes * 0.25))
    source = stream_io_requests(spec, geometry)
    calls = _python_frames(lambda: ssd.run_stream(source, queue_depth=32))
    assert ssd.stats.count == n
    assert ssd.stats.reservoir.seen == n > ssd.stats.reservoir.capacity
    assert calls / n <= 12.5


def test_list_and_stream_enter_the_same_frames_per_request():
    """One admission path: ``run(list)`` costs what the streamed form
    over the same list costs, frame for frame: the one frame between
    them is ``submit_many`` itself (its sort key is a C ``attrgetter``)."""
    geometry = scaled_geometry(8, scale=1 / 32)
    spec = make_workload("financial2", 2000, int(geometry.capacity_bytes * 0.25))
    frames = {}
    for form in ("list", "stream"):
        ssd = SimulatedSSD(geometry, ftl="dloop")
        ssd.precondition(0.45)
        requests = list(stream_io_requests(spec, geometry))
        if form == "list":
            run = partial(ssd.run, requests)
        else:
            run = partial(ssd.run_stream, iter(requests), queue_depth=None)
        frames[form] = _python_frames(run)
        assert ssd.stats.count == 2000
    assert frames["list"] == frames["stream"] + 1
    assert frames["list"] / 2000 <= 9.2  # 9.07 measured


@pytest.mark.parametrize("ftl_name", ("dftl", "dloop"))
def test_python_frames_per_page_budget(ftl_name):
    """Python-level frames per simulated page of a streamed ``build``
    replay (write-heavy, multi-page requests, CMT misses and dirty
    evictions; DFTL's plane 0 reaches GC, DLOOP's planes do not), engine
    and generator included.

    Deterministic (a count, not a timing).  Contender and baseline run
    the same host-write body, ``DemandPagedFtl.write_page``, and the
    placement hook is its one frame per page that is theirs: DLOOP
    measures 10.23 and DFTL 10.21, where DFTL's own call-composed
    ``write_page`` (``peek_plane``, ``allocate``, ``_ensure_block``,
    ``FlashArray.program``, ``ppn_to_plane``, ``FlashArray.invalidate``,
    two unguarded ``_maybe_gc``, ``_maybe_debug_check``) measured 18.69.
    """
    n = 3000
    geometry = scaled_geometry(8, scale=1 / 32)
    ssd = SimulatedSSD(geometry, ftl=ftl_name)
    ssd.precondition(0.45)
    spec = make_workload("build", n, int(geometry.capacity_bytes * 0.25))
    source = stream_io_requests(spec, geometry)
    calls = _python_frames(lambda: ssd.run_stream(source, queue_depth=32))
    assert ssd.stats.count == n
    stats = ssd.controller.stats
    pages = stats.pages_read + stats.pages_written + stats.pages_trimmed
    assert pages >= 4 * n
    assert calls / pages <= 10.3


def _frames_of_a_build_replay(observer):
    """Python frames entered by a 1 500-request streamed ``build`` replay
    on DLOOP with ``observer`` ("", "noop" or "sanitizer") subscribed."""
    geometry = scaled_geometry(8, scale=1 / 32)
    ssd = SimulatedSSD(geometry, ftl="dloop")
    ssd.precondition(0.45)
    spec = make_workload("build", 1500, int(geometry.capacity_bytes * 0.25))
    source = stream_io_requests(spec, geometry)
    subscriber = None
    if observer == "sanitizer":
        subscriber = SimSanitizer(ssd.ftl)
    elif observer == "noop":
        def subscriber(event):
            pass
    if subscriber is not None:
        BUS.subscribe(subscriber)
    try:
        calls = _python_frames(lambda: ssd.run_stream(source, queue_depth=32))
    finally:
        BUS.clear()
    assert ssd.stats.count == 1500
    return calls, subscriber


def test_python_frames_per_tracebus_event_budget():
    """Python frames an observed run enters on top of the bare one, per
    TraceBus event: ``(frames observed - frames bare) / events``.

    Deterministic (a count, not a timing).  Over this replay's 65 320
    events (no GC pass among them, so no sweep) a do-nothing subscriber
    measures 2.24: ``_emit_live`` and the subscriber, the remainder being
    helpers that emission sites call only when observed
    (``TraceBus.counter`` among them).  A ``SimSanitizer`` alone is
    ``BUS.emit`` itself — its ``trace_emit`` checks the event in one
    frame — and measures 1.24 on CPython 3.11; it measured 2.24 while
    the bus routed each kind to a per-kind handler method, and 4.71
    before that.
    """
    bare, _ = _frames_of_a_build_replay("")
    noop, _ = _frames_of_a_build_replay("noop")
    sanitized, sanitizer = _frames_of_a_build_replay("sanitizer")
    events = sanitizer.events_checked
    assert events > 60_000  # guard: same trace, same event stream
    assert sanitizer.violations == 0
    assert (noop - bare) / events <= 2.4
    assert (sanitized - bare) / events <= 1.3
