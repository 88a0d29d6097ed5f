"""Crash-point arming: turn one TraceBus event into a power cut.

A :class:`TortureArm` subscribes to the :data:`~repro.obs.tracebus.BUS`
and counts events of each *crash kind* (the taxonomy below).  When the
armed ``(kind, index)`` is reached it raises :class:`TortureCrash` on
the emitting call stack; the exception unwinds the FTL dispatch and the
engine's ``run()``, freezing the simulation exactly at that flash
operation — the campaign then calls ``SimulatedSSD.crash()`` to model
the power cut and recovery.

Two ordering rules make this sound:

* the arm must be the **last** BUS subscriber: a raising subscriber
  aborts delivery to later subscribers for that event, so anything that
  must observe the triggering event (the sanitizer's shadow model, the
  ack ledger) has to be subscribed before it;
* emitting ``torture/crash_fired`` from inside the subscriber re-enters
  the subscriber list (including this one) — safe, because no
  ``torture/*`` event maps to a crash kind.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.schema import (
    CAT_ARRAY,
    CAT_FAULT,
    CAT_GC,
    CAT_JOURNAL,
    CAT_WB,
    EV_ARRAY_ERASE,
    EV_ARRAY_PROGRAM,
    EV_GC_MIGRATE,
    EV_JOURNAL_COMMIT,
    EV_RELOCATE,
    EV_WB_FLUSH,
)
from repro.obs.tracebus import BUS, TraceEvent

#: The crash-point taxonomy, in report order.
CRASH_KINDS: Tuple[str, ...] = (
    "program", "erase", "gc_step", "wb_flush", "journal_commit",
)


def kind_of_event(event: TraceEvent) -> Optional[str]:
    """Crash kind of one TraceBus event, or None.

    Both the foreground-GC page move and the fault-path relocation
    count as ``gc_step``: either one is a valid-data copy whose
    interruption recovery must tolerate.
    """
    category = event.category
    name = event.name
    if category == CAT_ARRAY:
        if name == EV_ARRAY_PROGRAM:
            return "program"
        if name == EV_ARRAY_ERASE:
            return "erase"
        return None
    if category == CAT_GC:
        return "gc_step" if name == EV_GC_MIGRATE else None
    if category == CAT_FAULT:
        return "gc_step" if name == EV_RELOCATE else None
    if category == CAT_WB:
        return "wb_flush" if name == EV_WB_FLUSH else None
    if category == CAT_JOURNAL:
        return "journal_commit" if name == EV_JOURNAL_COMMIT else None
    return None


class TortureCrash(Exception):
    """An armed crash point fired; power fails *now*."""

    def __init__(self, kind: str, index: int):
        super().__init__(f"torture crash at {kind}[{index}]")
        self.kind = kind
        self.index = index


class TortureArm:
    """Counts crash-kind events; raises at the armed one.

    With ``armed=None`` the arm only counts — that is the discovery
    pass that enumerates a trace's candidate crash points.
    """

    def __init__(self) -> None:
        self.counts = {kind: 0 for kind in CRASH_KINDS}
        self._armed: Optional[Tuple[str, int]] = None
        self.fired: Optional[Tuple[str, int]] = None
        self._attached = False

    # ---- lifecycle -------------------------------------------------------

    def attach(self, armed: Optional[Tuple[str, int]] = None) -> "TortureArm":
        """Subscribe (last!) and optionally arm ``(kind, index)``."""
        if self._attached:
            raise RuntimeError("TortureArm is already attached")
        if armed is not None and armed[0] not in self.counts:
            raise ValueError(
                f"unknown crash kind {armed[0]!r}; available: {CRASH_KINDS}"
            )
        self._armed = armed
        self.fired = None
        for kind in self.counts:
            self.counts[kind] = 0
        BUS.subscribe(self._on_event)
        self._attached = True
        if armed is not None:
            BUS.emit("torture", "armed", 0.0, 0.0,
                     {"kind": armed[0], "index": int(armed[1])}, None, "i")
        return self

    def rearm(self, armed: Tuple[str, int]) -> None:
        """Arm a second crash point after the first fired (double-crash
        campaigns: the second cut lands during recovery).  Counters
        restart from zero, so the index is relative to recovery start."""
        if not self._attached:
            raise RuntimeError("TortureArm is not attached")
        if armed[0] not in self.counts:
            raise ValueError(
                f"unknown crash kind {armed[0]!r}; available: {CRASH_KINDS}"
            )
        for kind in self.counts:
            self.counts[kind] = 0
        self._armed = armed
        self.fired = None
        BUS.emit("torture", "armed", 0.0, 0.0,
                 {"kind": armed[0], "index": int(armed[1])}, None, "i")

    def disarm(self) -> None:
        """Stop crashing but keep counting (post-recovery resume)."""
        self._armed = None

    def detach(self) -> None:
        if self._attached:
            BUS.unsubscribe(self._on_event)
            self._attached = False
        self._armed = None

    # ---- subscriber ------------------------------------------------------

    def _on_event(self, event: TraceEvent) -> None:
        kind = kind_of_event(event)
        if kind is None:
            return
        index = self.counts[kind]
        self.counts[kind] = index + 1
        armed = self._armed
        if armed is not None and armed[0] == kind and armed[1] == index:
            self._armed = None
            self.fired = (kind, index)
            BUS.emit("torture", "crash_fired", event.ts_us, 0.0,
                     {"kind": kind, "index": index}, None, "i")
            raise TortureCrash(kind, index)
