"""Discrete-event engine: ordering, cancellation, clock discipline."""

import pytest

from repro.sim.engine import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule_at(30.0, fired.append, "c")
    engine.schedule_at(10.0, fired.append, "a")
    engine.schedule_at(20.0, fired.append, "b")
    engine.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    engine = Engine()
    fired = []
    for tag in range(5):
        engine.schedule_at(7.0, fired.append, tag)
    engine.run()
    assert fired == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_time():
    engine = Engine()
    times = []
    engine.schedule_at(12.5, lambda: times.append(engine.now))
    engine.run()
    assert times == [12.5]
    assert engine.now == 12.5


def test_schedule_after_is_relative():
    engine = Engine()
    seen = []
    engine.schedule_at(100.0, lambda: engine.schedule_after(5.0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [105.0]


def test_scheduling_in_the_past_raises():
    engine = Engine()
    engine.schedule_at(10.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule_at(5.0, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(ValueError):
        Engine().schedule_after(-1.0, lambda: None)


def test_cancel_prevents_firing():
    engine = Engine()
    fired = []
    handle = engine.schedule_at(10.0, fired.append, "x")
    engine.cancel(handle)
    engine.run()
    assert fired == []


def test_cancel_after_fire_is_noop():
    engine = Engine()
    fired = []
    handle = engine.schedule_at(1.0, fired.append, "x")
    engine.run()
    engine.cancel(handle)
    assert fired == ["x"]


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule_at(10.0, fired.append, "early")
    engine.schedule_at(50.0, fired.append, "late")
    engine.run(until=20.0)
    assert fired == ["early"]
    assert engine.now == 20.0
    engine.run()
    assert fired == ["early", "late"]


def test_run_until_advances_idle_clock():
    engine = Engine()
    engine.run(until=42.0)
    assert engine.now == 42.0


def test_step_returns_false_when_empty():
    engine = Engine()
    assert engine.step() is False


def test_events_scheduled_during_run_are_processed():
    engine = Engine()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            engine.schedule_after(1.0, chain, n + 1)

    engine.schedule_at(0.0, chain, 0)
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.events_processed == 4


def test_pending_counts_only_live_events():
    engine = Engine()
    h1 = engine.schedule_at(1.0, lambda: None)
    engine.schedule_at(2.0, lambda: None)
    engine.cancel(h1)
    assert engine.pending == 1


def test_double_cancel_decrements_pending_once():
    engine = Engine()
    handle = engine.schedule_at(1.0, lambda: None)
    engine.schedule_at(2.0, lambda: None)
    engine.cancel(handle)
    engine.cancel(handle)
    assert engine.pending == 1


def test_cancel_after_fire_keeps_pending_consistent():
    engine = Engine()
    handle = engine.schedule_at(1.0, lambda: None)
    engine.schedule_at(2.0, lambda: None)
    engine.step()  # fires handle
    engine.cancel(handle)  # no-op: already fired
    assert engine.pending == 1
    engine.run()
    assert engine.pending == 0


def test_pending_tracks_schedule_step_and_run():
    engine = Engine()
    assert engine.pending == 0
    handles = [engine.schedule_at(float(t), lambda: None) for t in range(1, 5)]
    assert engine.pending == 4
    engine.step()
    assert engine.pending == 3
    engine.cancel(handles[2])
    assert engine.pending == 2
    engine.run()
    assert engine.pending == 0


def test_pending_counts_events_scheduled_by_callbacks():
    engine = Engine()
    seen = []
    engine.schedule_at(1.0, lambda: engine.schedule_after(1.0, seen.append, "x"))
    assert engine.pending == 1
    engine.step()
    assert engine.pending == 1  # the chained event replaced the fired one
    engine.run()
    assert seen == ["x"]
    assert engine.pending == 0


def test_pending_accounting_under_schedule_cancel_churn():
    """Randomized schedule/cancel/step churn: ``pending`` never drifts.

    The O(1) pending counter is maintained at three sites (schedule,
    cancel, dispatch) and polled by background GC / sampler re-arm
    logic; a drift bug would starve or spin those loops.  Cross-check
    it against a brute-force scan of handle states after every burst,
    including double-cancels and cancel-after-fire.
    """
    import random

    rng = random.Random(0xC0FFEE)
    engine = Engine()
    handles = []
    fired = []

    for _ in range(150):
        for _ in range(rng.randrange(1, 8)):
            if rng.random() < 0.5:
                handles.extend(
                    engine.schedule_at(
                        engine.now + rng.random() * 10.0, fired.append, len(handles))
                    for _ in range(rng.randrange(1, 4))
                )
            else:
                handles.append(
                    engine.schedule_after(rng.random() * 10.0, fired.append, len(handles))
                )
        for _ in range(rng.randrange(0, 4)):
            victim = rng.choice(handles)
            engine.cancel(victim)
            if rng.random() < 0.3:
                engine.cancel(victim)  # double-cancel must not re-decrement
        for _ in range(rng.randrange(0, 3)):
            engine.step()
        alive = sum(1 for h in handles if not h.fired and not h.cancelled)
        assert engine.pending == alive

    engine.run()
    assert engine.pending == 0
    assert len(fired) == sum(1 for h in handles if h.fired)
    assert all(h.fired or h.cancelled for h in handles)
    for h in handles:  # cancel after the run is a universal no-op
        engine.cancel(h)
    assert engine.pending == 0
