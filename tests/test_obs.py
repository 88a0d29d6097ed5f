"""Observability layer units: TraceBus, Chrome export, FlashCounters
dict/reset, and the snapshot sampler."""

import io
import json

import pytest

from repro.flash.counters import FlashCounters
from repro.obs.chrome_trace import (
    PID_CHANNELS,
    PID_PLANES,
    ChromeTraceWriter,
)
from repro.obs.tracebus import BUS, TraceBus, TraceEvent


@pytest.fixture(autouse=True)
def clean_global_bus():
    """The global bus must never leak subscribers between tests."""
    yield
    BUS.clear()


# ---- TraceBus --------------------------------------------------------------


def test_bus_disabled_by_default():
    bus = TraceBus()
    assert bus.enabled is False
    bus.emit("c", "n", 0.0)  # no subscribers: emit is a harmless no-op


def test_subscribe_enables_unsubscribe_disables():
    bus = TraceBus()
    seen = []
    bus.subscribe(seen.append)
    assert bus.enabled is True
    bus.unsubscribe(seen.append)
    assert bus.enabled is False
    assert bus.subscriber_count == 0


def test_enabled_stays_on_until_last_subscriber_leaves():
    bus = TraceBus()
    a, b = [], []
    bus.subscribe(a.append)
    bus.subscribe(b.append)
    bus.unsubscribe(a.append)
    assert bus.enabled is True  # b is still listening
    bus.unsubscribe(b.append)
    assert bus.enabled is False


def test_emit_delivers_in_subscription_order():
    bus = TraceBus()
    order = []
    bus.subscribe(lambda e: order.append("first"))
    bus.subscribe(lambda e: order.append("second"))
    bus.emit("cat", "name", 1.0, 2.0, {"k": "v"}, "plane:0")
    assert order == ["first", "second"]


def test_event_fields():
    bus = TraceBus()
    events = []
    bus.subscribe(events.append)
    bus.emit("flash", "read", 10.0, 25.0, {"plane": 3}, "plane:3")
    (event,) = events
    assert isinstance(event, TraceEvent)
    assert event.category == "flash"
    assert event.name == "read"
    assert event.ts_us == 10.0
    assert event.duration_us == 25.0
    assert event.args == {"plane": 3}
    assert event.track == "plane:3"
    assert event.ph == "X"


def test_manual_disable_pauses_instrumentation_sites():
    """Setting enabled=False is the documented pause switch: guarded
    emit sites skip, subscribers stay registered."""
    bus = TraceBus()
    events = []
    bus.subscribe(events.append)
    bus.enabled = False
    if bus.enabled:  # what every instrumentation site does
        bus.emit("c", "n", 0.0)
    assert events == []
    assert bus.subscriber_count == 1


def test_capture_context_manager():
    bus = TraceBus()
    with bus.capture() as events:
        bus.emit("c", "n", 5.0)
    assert len(events) == 1
    assert bus.enabled is False
    bus.emit("c", "n", 6.0)
    assert len(events) == 1  # detached after the with block


def test_counter_helper_emits_phase_c():
    bus = TraceBus()
    with bus.capture() as events:
        bus.counter("queue_depth", 7.0, {"outstanding": 3})
    assert events[0].ph == "C"
    assert events[0].args == {"outstanding": 3}


# ---- TraceBus: one delivery rule -----------------------------------------------


class Fields:
    """A subscriber that takes fields (``trace_emit``): logs ``(label,
    category, name)`` per event, then calls ``then`` if given."""

    def __init__(self, label, log, then=None):
        self.label = label
        self.log = log
        self.then = then

    def trace_emit(self, category, name, ts_us, duration_us=0.0, args=None, track=None, ph="X"):
        self.log.append((self.label, category, name))
        if self.then is not None:
            self.then()

    def __call__(self, event):
        raise AssertionError("a trace_emit subscriber is given fields, not events")


def test_sole_trace_emit_subscriber_is_the_emit():
    bus = TraceBus()
    log = []
    sole = bus.subscribe(Fields("f", log))
    assert bus.emit == sole.trace_emit  # sites call it directly
    bus.emit("flash", "read", 0.0)
    plain = bus.subscribe(log.append)  # two subscribers: fan-out
    assert bus.emit != sole.trace_emit
    bus.emit("gc", "gc_pass", 1.0)
    bus.unsubscribe(plain)  # back to one: rebound
    assert bus.emit == sole.trace_emit
    bus.emit("cmt", "hit", 2.0)
    assert log[:2] == [("f", "flash", "read"), ("f", "gc", "gc_pass")]
    assert log[2] == TraceEvent("gc", "gc_pass", 1.0, 0.0, None, None, "X")
    assert log[3:] == [("f", "cmt", "hit")]


def test_subscribing_from_a_sole_trace_emit_switches_the_next_emit_to_fan_out():
    bus = TraceBus()
    log = []

    def recruit():
        if bus.subscriber_count == 1:
            bus.subscribe(log.append)

    bus.subscribe(Fields("f", log, then=recruit))
    bus.emit("c", "first", 0.0)
    assert log == [("f", "c", "first")]
    bus.emit("c", "second", 1.0)
    assert log[1] == ("f", "c", "second") and log[2].name == "second"
    assert len(log) == 3


def test_order_is_kept_across_field_and_event_subscribers():
    bus = TraceBus()
    log = []
    bus.subscribe(lambda e: log.append(("a", e.name)))
    bus.subscribe(Fields("b", log))
    bus.subscribe(lambda e: log.append(("c", e.name)))
    bus.subscribe(Fields("d", log))
    bus.emit("flash", "read", 0.0)
    bus.emit("cmt", "hit", 0.0)
    bus.emit("flash", "read", 1.0)
    per_event = [
        [("a", "read"), ("b", "flash", "read"), ("c", "read"), ("d", "flash", "read")],
        [("a", "hit"), ("b", "cmt", "hit"), ("c", "hit"), ("d", "cmt", "hit")],
    ]
    assert log == per_event[0] + per_event[1] + per_event[0]


def test_unsubscribing_during_delivery_does_not_skip_the_next_subscriber():
    # [a, b, c], a unsubscribes itself: the event still reaches b and c
    # (a list iterator over the subscribers skipped b).
    bus = TraceBus()
    seen = []

    def a(event):
        seen.append("a")
        bus.unsubscribe(a)

    bus.subscribe(a)
    bus.subscribe(lambda e: seen.append("b"))
    bus.subscribe(lambda e: seen.append("c"))
    bus.emit("c", "n", 0.0)
    assert seen == ["a", "b", "c"]
    bus.emit("c", "n", 1.0)  # ... and the change holds from the next emit
    assert seen == ["a", "b", "c", "b", "c"]


def test_subscribing_during_delivery_takes_effect_at_the_next_emit():
    bus = TraceBus()
    late = []

    def recruiter(event):
        if not late:
            bus.subscribe(late.append)

    bus.subscribe(recruiter)
    bus.emit("c", "first", 0.0)
    assert late == []
    bus.emit("c", "second", 1.0)
    assert [event.name for event in late] == ["second"]


def test_raising_subscriber_shields_the_later_ones():
    # The torture arm subscribes last for this reason: a checker that
    # raises on an event keeps the arm from counting it.
    bus = TraceBus()
    log = []

    def checker(event):
        log.append("checker")
        if event.name == "bad":
            raise RuntimeError("rejected")

    bus.subscribe(checker)
    bus.subscribe(Fields("arm", log))
    bus.emit("flash", "good", 0.0)
    with pytest.raises(RuntimeError, match="rejected"):
        bus.emit("flash", "bad", 1.0)
    assert log == ["checker", ("arm", "flash", "good"), "checker"]


def test_reentrant_emit_is_delivered_inside_the_outer_one():
    bus = TraceBus()
    log = []

    def echo(event):
        log.append(("echo", event.name))
        if event.name == "outer":
            bus.emit("c", "inner", 0.0)

    bus.subscribe(echo)
    bus.subscribe(lambda e: log.append(("tail", e.name)))
    bus.emit("c", "outer", 0.0)
    assert log == [("echo", "outer"), ("echo", "inner"), ("tail", "inner"), ("tail", "outer")]


def test_nested_capture():
    bus = TraceBus()
    with bus.capture() as outer:
        bus.emit("c", "one", 0.0)
        with bus.capture() as inner:
            bus.emit("c", "two", 1.0)
        bus.emit("c", "three", 2.0)
    assert [e.name for e in outer] == ["one", "two", "three"]
    assert [e.name for e in inner] == ["two"]
    assert bus.enabled is False and bus.subscriber_count == 0


def test_paused_bus_still_delivers_a_direct_emit():
    bus = TraceBus()
    log = []
    bus.subscribe(Fields("r", log))
    bus.subscribe(log.append)
    bus.enabled = False
    bus.emit("flash", "read", 0.0)  # sites guard; a direct call delivers
    assert log[0] == ("r", "flash", "read") and log[1].name == "read"
    bus.unsubscribe(log.append)  # the sole trace_emit, still paused
    assert bus.enabled is False
    bus.emit("flash", "program", 1.0)
    assert log[2:] == [("r", "flash", "program")]


def test_clear_mid_run_forgets_subscribers():
    bus = TraceBus()
    first, second = [], []
    bus.subscribe(Fields("first", first))
    bus.emit("c", "n", 0.0)
    bus.clear()
    assert bus.enabled is False and bus.subscriber_count == 0
    bus.emit("c", "n", 1.0)  # the stub again: nobody is listening
    bus.subscribe(second.append)
    bus.emit("c", "n", 2.0)  # the cleared subscriber must not resurface
    assert first == [("first", "c", "n")]
    assert [e.ts_us for e in second] == [2.0]


def test_clear_from_inside_a_subscriber_finishes_the_delivery():
    bus = TraceBus()
    seen = []
    bus.subscribe(lambda e: bus.clear())
    bus.subscribe(seen.append)
    bus.emit("c", "n", 0.0)
    bus.emit("c", "n", 1.0)
    assert [e.ts_us for e in seen] == [0.0]


def test_bus_built_events_are_ordinary_trace_events():
    import pickle

    bus = TraceBus()
    with bus.capture() as events:
        bus.emit("flash", "read", 10.0, 25.0, {"plane": 3}, "plane:3")
        bus.emit("gc", "gc_pass", 5.0)
    built = TraceEvent("flash", "read", 10.0, 25.0, {"plane": 3}, "plane:3", "X")
    assert events[0] == built
    assert type(events[0]) is TraceEvent
    assert events[1] == TraceEvent("gc", "gc_pass", 5.0, 0.0, None, None, "X")
    category, name, ts_us, duration_us, args, track, ph = events[0]
    assert (category, name, ts_us, duration_us, args, track, ph) == tuple(built)
    assert events[0]._asdict() == built._asdict()
    assert events[0]._replace(name="program").name == "program"
    clone = pickle.loads(pickle.dumps(events[0]))
    assert clone == built and type(clone) is TraceEvent


# ---- ChromeTraceWriter -----------------------------------------------------


def _write_events(events):
    bus = TraceBus()
    sink = io.StringIO()
    writer = ChromeTraceWriter(sink, bus=bus)
    writer.attach()
    for event in events:
        bus.emit(*event)
    writer.close()
    assert bus.enabled is False  # close() detaches
    return json.loads(sink.getvalue())


def test_chrome_trace_schema_and_row_mapping():
    payload = _write_events([
        ("flash", "read", 50.0, 25.0, {"plane": 2, "channel": 1}, "plane:2"),
        ("flash", "xfer_out", 10.0, 5.0, {"plane": 2, "channel": 1}, "channel:1"),
        ("counter", "queue_depth", 30.0, 0.0, {"outstanding": 4}, None, "C"),
    ])
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    # one row per plane and per channel
    read = next(e for e in spans if e["name"] == "read")
    assert (read["pid"], read["tid"]) == (PID_PLANES, 2)
    assert read["dur"] == 25.0
    xfer = next(e for e in spans if e["name"] == "xfer_out")
    assert (xfer["pid"], xfer["tid"]) == (PID_CHANNELS, 1)
    counter = next(e for e in events if e["ph"] == "C")
    assert counter["args"] == {"outstanding": 4}
    # metadata names the rows
    names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names[(PID_PLANES, 2)] == "plane 2"
    assert names[(PID_CHANNELS, 1)] == "channel 1"


def test_chrome_trace_timestamps_sorted():
    payload = _write_events([
        ("flash", "b", 100.0, 1.0, None, "plane:0"),
        ("flash", "a", 50.0, 1.0, None, "plane:0"),
        ("flash", "c", 75.0, 1.0, None, "plane:1"),
    ])
    ts = [e["ts"] for e in payload["traceEvents"] if e["ph"] == "X"]
    assert ts == sorted(ts)


def test_chrome_trace_extra_tracks_get_named_rows():
    payload = _write_events([
        ("gc", "background_pass", 0.0, 10.0, None, "background_gc"),
    ])
    events = payload["traceEvents"]
    span = next(e for e in events if e["ph"] == "X")
    label = next(
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
        and (e["pid"], e["tid"]) == (span["pid"], span["tid"])
    )
    assert label == "background_gc"


def test_chrome_trace_writes_file(tmp_path):
    bus = TraceBus()
    path = str(tmp_path / "trace.json")
    writer = ChromeTraceWriter(path, bus=bus)
    with writer.recording():
        bus.emit("flash", "read", 0.0, 1.0, {"plane": 0}, "plane:0")
    payload = json.loads(open(path).read())
    assert any(e.get("cat") == "flash" for e in payload["traceEvents"])


# ---- FlashCounters.as_dict / reset ----------------------------------------


def test_counters_as_dict_is_plain_python():
    counters = FlashCounters(4, 2)
    counters.reads = 3
    counters.copybacks = 6
    counters.interplane_copies = 2
    counters.plane_ops[1] = 5
    counters.channel_busy_us[0] = 12.5
    d = counters.as_dict()
    assert d["reads"] == 3
    assert d["copyback_ratio"] == pytest.approx(6 / 8)
    assert d["plane_ops"] == [0, 5, 0, 0]
    assert all(type(x) is int for x in d["plane_ops"])
    assert all(type(x) is float for x in d["channel_busy_us"])
    json.dumps(d)  # fully serialisable, no numpy scalars


def test_counters_copyback_ratio_zero_when_no_moves():
    assert FlashCounters(2, 1).as_dict()["copyback_ratio"] == 0.0


def test_counters_copyback_ratio_zero_when_only_controller_moves():
    counters = FlashCounters(2, 1)
    counters.interplane_copies = 7
    assert counters.copyback_ratio == 0.0


def test_counters_copyback_ratio_one_when_only_copybacks():
    counters = FlashCounters(2, 1)
    counters.copybacks = 5
    assert counters.copyback_ratio == 1.0


def test_counters_reset_in_place():
    counters = FlashCounters(2, 2)
    plane_ops = counters.plane_ops
    counters.programs = 9
    counters.plane_ops[0] = 4
    counters.reset()
    assert counters.programs == 0
    assert counters.plane_ops is plane_ops  # same arrays, zeroed
    assert sum(counters.plane_ops) == 0
    assert counters.total_ops == 0
