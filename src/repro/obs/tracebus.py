"""TraceBus: the process-wide instrumentation event bus.

Every instrumented hot path in the simulator (engine dispatch, flash
commands, request lifecycles, GC) publishes :class:`TraceEvent` records
here; exporters (``repro.obs.chrome_trace``), samplers and tests
subscribe.  The design constraint is *near-zero overhead when nobody is
listening*: instrumentation sites guard every emit with a single
attribute lookup::

    from repro.obs.tracebus import BUS
    ...
    if BUS.enabled:
        BUS.emit("flash", "read", start, end - start,
                 {"plane": plane, "channel": channel}, f"plane:{plane}")

``enabled`` is a plain instance attribute (no property, no descriptor),
so the disabled cost is one global load plus one attribute load per
site.  The per-page sites do no numpy work any more, so neither cost
hides behind anything: on CPython 3.11 a false guard is ~4 ns (a bare
DLOOP page passes about fourteen of them, under 0.1 us of its ~9 us),
and an emit that reaches one do-nothing subscriber is ~0.3 us plus
~0.1 us for the payload dict its site builds — at fourteen events per
page, as much again as the bare page before any subscriber does work
(docs/performance.md, "What the sanitizer costs").
``enabled`` is managed automatically: subscribing turns the bus on,
removing the last subscriber turns it off.  Setting ``bus.enabled =
False`` by hand pauses delivery without tearing subscribers down
(instrumentation sites skip their emits; direct calls to :meth:`emit`
still deliver — sites are required to guard).

Events are plain tuples (a :class:`TraceEvent` NamedTuple), created only
when a subscriber without ``trace_emit`` listens.  Timestamps are
*simulated* microseconds, so a recorded trace replays the device
timeline, not wall clock.

Delivery has one rule.  With no subscribers ``emit`` is a no-op.  A
subscriber is any callable taking the event; one that also defines
``trace_emit(category, name, ts_us, duration_us=0.0, args=None,
track=None, ph="X")`` takes the event's fields instead.  When such a
subscriber is the only one, ``emit`` *is* its bound ``trace_emit``, so
an emit site calls it directly and no event object is built
(:class:`repro.lint.sanitizer.SimSanitizer` checks an event in that one
frame); otherwise every subscriber is called in subscription order,
``trace_emit`` with the fields and the rest with one shared
:class:`TraceEvent`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, List, NamedTuple, Optional, Tuple


class TraceEvent(NamedTuple):
    """One instrumentation record.

    ``ph`` follows the Chrome trace-event phase vocabulary for the
    subset the simulator uses: ``"X"`` complete span, ``"i"`` instant,
    ``"C"`` counter sample.
    """

    category: str
    name: str
    ts_us: float
    duration_us: float
    args: Optional[dict]
    track: Optional[str]
    ph: str


Subscriber = Callable[[TraceEvent], Any]

#: ``TraceEvent(...)`` without the frame of the generated ``__new__``
#: (~300 -> ~155 ns on CPython 3.11): the same object, built by the
#: call that ``__new__`` itself ends in.
_new_event = tuple.__new__


class TraceBus:
    """Synchronous pub/sub bus for simulation trace events.

    Subscribers are invoked in subscription order, on the emitting
    call stack (the simulator is single-threaded and deterministic, so
    ordering is reproducible); that order holds across subscribers that
    take fields (``trace_emit``) and ones that take events.  A
    subscriber that raises stops delivery of that event to the later
    ones.  A subscription change — ``subscribe``, ``unsubscribe`` or
    ``clear``, from inside a subscriber or not — takes effect at the
    next ``emit``: the event being delivered still reaches exactly the
    subscribers registered when its ``emit`` began.  Subscribers must
    not mutate simulation state: tracing on vs. off must leave results
    bit-identical.
    """

    __slots__ = ("enabled", "_subscribers", "_targets", "emit")

    def __init__(self) -> None:
        self.enabled: bool = False
        self._subscribers: List[Subscriber] = []
        # (callable, takes fields) per subscriber, in subscription order:
        # what a fan-out emit delivers to, rebuilt on every change.
        self._targets: Tuple[Tuple[Callable[..., Any], bool], ...] = ()
        # ``emit`` is an instance attribute bound to the delivery rule
        # for the subscribers now (see :meth:`_rebind`): with none, a
        # call costs one no-op invocation instead of building a
        # TraceEvent nobody reads.  Hot paths still guard with ``if
        # bus.enabled``; the stub covers unguarded callers for free.
        self.emit: Callable[..., None] = self._emit_noop

    # ---- subscription ----------------------------------------------------

    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Register ``fn`` and enable the bus.  Returns ``fn``."""
        self._subscribers.append(fn)
        self.enabled = True
        self._rebind()
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove ``fn``; the bus disables itself when none remain."""
        self._subscribers.remove(fn)
        if not self._subscribers:
            self.enabled = False
        self._rebind()

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def clear(self) -> None:
        """Drop every subscriber and disable the bus (test teardown)."""
        self._subscribers.clear()
        self.enabled = False
        self._rebind()

    def _rebind(self) -> None:
        """Point ``emit`` at the delivery rule: the no-op for no
        subscribers, a sole subscriber's ``trace_emit`` itself, and
        :meth:`_emit_live` for everything else."""
        targets = []
        for fn in self._subscribers:
            fields = getattr(fn, "trace_emit", None)
            targets.append((fn, False) if fields is None else (fields, True))
        self._targets = tuple(targets)
        if not targets:
            self.emit = self._emit_noop
        elif len(targets) == 1 and targets[0][1]:
            self.emit = targets[0][0]
        else:
            self.emit = self._emit_live

    # ---- emission --------------------------------------------------------

    def _emit_live(
        self,
        category: str,
        name: str,
        ts_us: float,
        duration_us: float = 0.0,
        args: Optional[dict] = None,
        track: Optional[str] = None,
        ph: str = "X",
    ) -> None:
        """Deliver one event to every subscriber, in order.

        Callers on hot paths must guard with ``if bus.enabled:`` —
        ``emit`` itself does not re-check, so a paused-but-subscribed
        bus can still be driven explicitly (tests rely on this).
        """
        event = _new_event(
            TraceEvent, (category, name, ts_us, duration_us, args, track, ph)
        )
        for target, fields in self._targets:
            if fields:
                target(*event)
            else:
                target(event)

    def _emit_noop(
        self,
        category: str,
        name: str,
        ts_us: float,
        duration_us: float = 0.0,
        args: Optional[dict] = None,
        track: Optional[str] = None,
        ph: str = "X",
    ) -> None:
        """Subscriber-free fast path: do nothing."""

    def counter(self, name: str, ts_us: float, values: dict) -> None:
        """Convenience: emit a counter sample (phase ``"C"``)."""
        self.emit("counter", name, ts_us, 0.0, values, None, "C")

    # ---- capture helper --------------------------------------------------

    @contextmanager
    def capture(self):
        """Collect events into a list for the ``with`` block's duration::

            with BUS.capture() as events:
                run_simulation(...)
            assert any(e.category == "gc" for e in events)
        """
        events: List[TraceEvent] = []
        self.subscribe(events.append)
        try:
            yield events
        finally:
            self.unsubscribe(events.append)


#: The process-wide bus all built-in instrumentation publishes to.
#: Simulations are single-threaded per process (the parallel experiment
#: runner forks processes, each with its own bus), so a module-level
#: singleton keeps the wiring out of every constructor.
BUS = TraceBus()
