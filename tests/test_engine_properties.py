"""Property-based tests for the DES engine, geometry and parsers."""

import io
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.flash.geometry import KB, SSDGeometry
from repro.sim.engine import Engine, EventHandle
from repro.traces.model import TraceRequest
from repro.traces.parser import parse_disksim, parse_spc, write_disksim, write_spc


# ---- engine --------------------------------------------------------------------


@given(times=st.lists(st.floats(0, 1e9, allow_nan=False, allow_infinity=False), max_size=100))
def test_engine_fires_in_sorted_order(times):
    engine = Engine()
    fired = []
    for t in times:
        engine.schedule_at(t, fired.append, t)
    engine.run()
    assert fired == sorted(times)
    assert engine.events_processed == len(times)


@given(
    times=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=50),
)
def test_engine_cancellation(times, cancel_mask):
    engine = Engine()
    fired = []
    handles = [engine.schedule_at(t, fired.append, i) for i, t in enumerate(times)]
    expected = []
    for i, handle in enumerate(handles):
        if i < len(cancel_mask) and cancel_mask[i]:
            engine.cancel(handle)
        else:
            expected.append(i)
    engine.run()
    assert sorted(fired) == expected


@given(chain_depth=st.integers(1, 30), step=st.floats(0.001, 1000, allow_nan=False))
def test_engine_chained_scheduling(chain_depth, step):
    engine = Engine()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < chain_depth:
            engine.schedule_after(step, tick)

    engine.schedule_at(0.0, tick)
    engine.run()
    assert count[0] == chain_depth
    assert engine.now >= (chain_depth - 1) * step * 0.999


# ---- geometry -------------------------------------------------------------------


@given(
    channels=st.sampled_from([1, 2, 4, 8]),
    dies=st.integers(1, 4),
    planes=st.sampled_from([1, 2, 4]),
    blocks=st.integers(4, 256),
    page_kb=st.sampled_from([1, 2, 4, 8]),
    extra=st.floats(0, 20, allow_nan=False),
)
@settings(max_examples=50)
def test_geometry_arithmetic_consistent(channels, dies, planes, blocks, page_kb, extra):
    geom = SSDGeometry(
        channels=channels,
        dies_per_chip=dies,
        planes_per_die=planes,
        blocks_per_plane=blocks,
        pages_per_block=32,
        page_size=page_kb * KB,
        extra_blocks_percent=extra,
    )
    assert geom.num_planes == channels * dies * planes
    assert geom.num_physical_pages == geom.num_physical_blocks * geom.pages_per_block
    assert geom.capacity_bytes == geom.num_lpns * geom.page_size
    assert geom.extra_blocks_per_plane >= 0
    assert geom.physical_blocks_per_plane >= geom.blocks_per_plane
    assert geom.num_dies * geom.planes_per_die == geom.num_planes
    # every channel serves the same number of planes
    per_channel = Counter(geom.plane_to_channel(p) for p in range(geom.num_planes))
    assert sorted(per_channel) == list(range(channels))
    assert set(per_channel.values()) == {geom.num_planes // channels}


@given(capacity_mb=st.integers(8, 4096))
@settings(max_examples=30)
def test_from_capacity_close_to_target(capacity_mb):
    target = capacity_mb * 1024 * 1024
    geom = SSDGeometry.from_capacity(target)
    # rounding to whole blocks per plane: within one block row of target
    tolerance = geom.num_planes * geom.pages_per_block * geom.page_size
    assert abs(geom.capacity_bytes - target) <= tolerance


# ---- parsers -----------------------------------------------------------------------


request_strategy = st.builds(
    TraceRequest,
    arrival_us=st.floats(0, 1e8, allow_nan=False).map(lambda x: round(x, 3)),
    offset_bytes=st.integers(0, 2**40).map(lambda x: x * 512),
    size_bytes=st.integers(1, 2**20),
    is_write=st.booleans(),
)


@given(trace=st.lists(request_strategy, max_size=50))
def test_spc_round_trip_property(trace):
    buffer = io.StringIO()
    write_spc(trace, buffer)
    buffer.seek(0)
    back = parse_spc(buffer)
    assert len(back) == len(trace)
    for a, b in zip(trace, back):
        assert a.is_write == b.is_write
        assert a.size_bytes == b.size_bytes
        assert a.offset_bytes == b.offset_bytes  # sector-aligned by construction


@given(trace=st.lists(request_strategy, max_size=50))
def test_disksim_round_trip_property(trace):
    buffer = io.StringIO()
    write_disksim(trace, buffer)
    buffer.seek(0)
    back = parse_disksim(buffer)
    assert len(back) == len(trace)
    for a, b in zip(trace, back):
        assert a.is_write == b.is_write
        assert b.size_bytes >= a.size_bytes  # rounded up to sectors
        assert b.size_bytes - a.size_bytes < 512


# ---- Engine.pending is derived, not counted ---------------------------------


class PendingMachine(RuleBasedStateMachine):
    """``engine.pending`` == a brute-force count of live heap entries
    after every operation that can add, cancel, fire or drop an event."""

    def __init__(self):
        super().__init__()
        self.engine = Engine()
        self.handles = []

    def _at(self, delay):
        return self.engine.now + delay

    @rule(delay=st.floats(0, 100, allow_nan=False))
    def schedule_at(self, delay):
        self.handles.append(self.engine.schedule_at(self._at(delay), int))

    @rule(delay=st.floats(0, 100, allow_nan=False))
    def post(self, delay):
        self.engine.post(self._at(delay), int, 0)

    @rule(data=st.data())
    def cancel(self, data):
        # any handle ever returned: pending, cancelled before, fired, dropped
        if self.handles:
            self.engine.cancel(data.draw(st.sampled_from(self.handles)))

    @rule()
    def step(self):
        self.engine.step()

    @rule(delay=st.floats(0, 100, allow_nan=False))
    def run_until(self, delay):
        self.engine.run(until=self._at(delay))

    @rule()
    def run_dry(self):
        self.engine.run()

    @rule()
    def clear_pending(self):
        live = self._live()
        assert self.engine.clear_pending() == live

    def _live(self):
        return sum(
            1 for entry in self.engine._heap
            if not (isinstance(entry[2], EventHandle) and entry[2].cancelled)
        )

    @invariant()
    def pending_is_the_live_entries(self):
        assert self.engine.pending == self._live()
        assert self.engine.pending >= 0


TestPendingMachine = PendingMachine.TestCase
TestPendingMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
