"""Heap-based discrete-event simulation core.

The engine keeps a priority queue of ``(time, sequence, handle)``
entries.  Events scheduled for the same instant fire in scheduling
order, which makes simulations deterministic.  Times are microseconds.

Heap entries are plain tuples rather than the handles themselves: tuple
comparison happens in C, so sift operations never call back into Python
(an ``EventHandle.__lt__`` on every comparison roughly doubles the cost
of the whole loop).  The sequence number is unique, so comparison never
falls through to the handle.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.tracebus import BUS


class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule_at`.

    Holds enough state to support O(1) cancellation (lazy deletion:
    cancelled events stay in the heap but are skipped when popped).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}us, seq={self.seq}, {state})"


class Engine:
    """Discrete-event simulator with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        #: cancelled handles still sitting in the heap (lazy deletion)
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1)).

        Derived: every heap entry is live except the cancelled handles
        lazy deletion left in place, which ``cancel`` counts in and the
        run loop counts out as it pops them.  Scheduling, posting and
        dispatching therefore touch no counter, and the background-GC
        and sampler re-arm polls still never scan the heap.
        """
        return len(self._heap) - self._cancelled

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling in the past raises ``ValueError`` — events must not
        rewind the clock.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before now ({self._now})")
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def post(self, time: float, callback: Callable[..., Any], arg: Any) -> None:
        """Schedule ``callback(arg)`` at ``time`` — fire-and-forget.

        The hot-path twin of :meth:`schedule_at` for events nobody ever
        cancels (request arrivals/completions): the heap entry is a bare
        ``(time, seq, callback, arg)`` tuple, so no :class:`EventHandle`
        is allocated.  Sequence numbers come from the same counter, so
        posts and scheduled events interleave in exactly the order the
        calls were made — determinism is unchanged.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before now ({self._now})")
        heapq.heappush(self._heap, (time, next(self._seq), callback, arg))

    def schedule_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def clear_pending(self) -> int:
        """Cancel every not-yet-fired event (power loss: in-flight work
        vanishes mid-air).  Returns the number of events dropped.  The
        clock does not move; the engine can schedule and run again."""
        dropped = 0
        for entry in self._heap:
            handle = entry[2]
            if handle.__class__ is not EventHandle:  # posted: always pending
                dropped += 1
                continue
            if not (handle.cancelled or handle.fired):
                handle.cancelled = True
                dropped += 1
        self._heap.clear()
        self._cancelled = 0
        return dropped

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event (no-op if it already fired or was
        already cancelled — the pending count must not decrement twice)."""
        if handle.cancelled or handle.fired:
            return
        handle.cancelled = True
        self._cancelled += 1

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            time = entry[0]
            x = entry[2]
            if x.__class__ is not EventHandle:
                self._now = time
                self._events_processed += 1
                if BUS.enabled:
                    self._trace_dispatch(time, entry[1], x)
                x(entry[3])
                return True
            if x.cancelled:
                self._cancelled -= 1
                continue
            x.fired = True
            self._now = time
            self._events_processed += 1
            if BUS.enabled:
                self._trace_dispatch(time, x.seq, x.callback)
            x.callback(*x.args)
            return True
        return False

    def _trace_dispatch(self, time: float, seq: int, callback) -> None:
        # ``seq`` lets observers (the sanitizer) verify that
        # same-timestamp events fire in scheduling order.
        BUS.emit(
            "engine",
            getattr(callback, "__qualname__", None) or repr(callback),
            time,
            0.0,
            {"seq": seq},
            None,
            "i",
        )

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the final simulated time.

        The loop is the simulator's innermost hot path: one heap pop per
        event (no separate peek-then-step), locals hoisted, and the
        tracing branch reduced to a single attribute check per event.
        """
        heap = self._heap
        pop = heapq.heappop
        bus = BUS
        handle_cls = EventHandle
        while heap:
            entry = heap[0]
            # Posted entries carry the callback at index 2, scheduled
            # ones the EventHandle; a hoisted class check is the
            # cheapest discrimination the loop can do per event.
            x = entry[2]
            if x.__class__ is handle_cls:
                if x.cancelled:
                    pop(heap)
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    self._now = until
                    return until
                pop(heap)
                x.fired = True
                self._now = time
                self._events_processed += 1
                if bus.enabled:
                    self._trace_dispatch(time, x.seq, x.callback)
                x.callback(*x.args)
            else:
                time = entry[0]
                if until is not None and time > until:
                    self._now = until
                    return until
                pop(heap)
                self._now = time
                self._events_processed += 1
                if bus.enabled:
                    self._trace_dispatch(time, entry[1], x)
                x(entry[3])
        if until is not None and until > self._now:
            self._now = until
        return self._now
