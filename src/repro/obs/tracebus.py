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
when the bus is enabled.  Timestamps are *simulated* microseconds, so a
recorded trace replays the device timeline, not wall clock.

Delivery is routed per event *kind* — ``(category, name)``.  A
subscriber is any callable taking the event; one that also defines
``trace_route(category, name)`` is asked once per kind which callable
handles that kind, and the bus calls that handler directly from then on
(:class:`repro.lint.sanitizer.SimSanitizer` answers with one bound
method per kind, so an event costs it one frame instead of a dispatch
chain).  ``trace_route`` always returns a callable: a subscriber sees
every event of every kind, routed or not.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


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
    ordering is reproducible); for every event kind that order holds
    across subscribers that route (``trace_route``) and ones that do
    not.  A subscriber that raises stops delivery of that event to the
    later ones.  A subscription change — ``subscribe``, ``unsubscribe``
    or ``clear``, from inside a subscriber or not — takes effect at the
    next ``emit``: the event being delivered still reaches exactly the
    subscribers registered when its ``emit`` began.  Subscribers must
    not mutate simulation state: tracing on vs. off must leave results
    bit-identical.
    """

    __slots__ = ("enabled", "_subscribers", "_routes", "emit")

    def __init__(self) -> None:
        self.enabled: bool = False
        self._subscribers: List[Subscriber] = []
        # category -> name -> the callables an event of that kind is
        # delivered to, in subscription order; filled on first use and
        # dropped whole on every subscription change.
        self._routes: Dict[str, Dict[str, Tuple[Subscriber, ...]]] = {}
        # ``emit`` is an instance attribute swapped between the live
        # implementation and a no-op stub: with zero subscribers a call
        # costs one no-op invocation instead of building a TraceEvent
        # nobody reads.  Hot paths still guard with ``if bus.enabled``;
        # the stub covers unguarded callers for free.
        self.emit = self._emit_noop

    # ---- subscription ----------------------------------------------------

    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Register ``fn`` and enable the bus.  Returns ``fn``."""
        self._subscribers.append(fn)
        self._routes = {}
        self.enabled = True
        self.emit = self._emit_live
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove ``fn``; the bus disables itself when none remain."""
        self._subscribers.remove(fn)
        self._routes = {}
        if not self._subscribers:
            self.enabled = False
            self.emit = self._emit_noop

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def clear(self) -> None:
        """Drop every subscriber and disable the bus (test teardown)."""
        self._subscribers.clear()
        self._routes = {}
        self.enabled = False
        self.emit = self._emit_noop

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
        try:
            targets = self._routes[category][name]
        except KeyError:
            targets = self._route(category, name)
        for target in targets:
            target(event)

    def _route(self, category: str, name: str) -> Tuple[Subscriber, ...]:
        """Resolve, and remember, who handles events of one kind."""
        resolved = []
        for fn in self._subscribers:
            route = getattr(fn, "trace_route", None)
            resolved.append(fn if route is None else route(category, name))
        targets = tuple(resolved)
        self._routes.setdefault(category, {})[name] = targets
        return targets

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
