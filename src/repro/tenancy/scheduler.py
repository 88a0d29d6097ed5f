"""Weighted deficit-round-robin admission across per-tenant NCQ queues.

Sits in front of :meth:`repro.controller.controller.Controller.
submit_stream`: each tenant owns a lazily-consumed, time-ordered
request iterator (its NCQ submission queue), and the scheduler merges
them into one stream the controller's admission window can drain.

Classic DRR (Shreedhar & Varghese): each backlogged tenant holds a
deficit counter topped up by ``quantum_pages * weight`` once per
round-robin turn and spent page-for-page on admitted requests — a
tenant issuing large requests gets the same page share as one issuing
small requests, and an idle tenant's unused turn is never banked.

Everything is deterministic (DL103-clean): tenants live in lists, the
active ring is FIFO, ties break by tenant declaration order, and the
virtual clock only ever advances to the minimum pending arrival.
Emitted arrivals are clamped to the running maximum, so the merged
stream is monotone by construction and never trips the controller's
:class:`~repro.controller.controller.StreamOrderError`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional, Sequence

from repro.obs.tracebus import BUS
from repro.sim.request import IoRequest
from repro.tenancy.namespace import Namespace, NamespaceError

#: Default per-turn replenishment, in pages, for a weight-1.0 tenant.
#: At least the largest request size a persona emits, so one turn can
#: always admit at least one request once the deficit accrues.
DEFAULT_QUANTUM_PAGES = 8


class TenantQueue:
    """One tenant's submission queue: an iterator plus DRR state.

    ``requests`` yields namespace-local, time-ordered
    :class:`~repro.sim.request.IoRequest` objects; the queue translates
    them into device LPNs (tagging each with the tenant's nsid) as they
    are pulled.
    """

    __slots__ = ("namespace", "weight", "_requests", "head", "deficit",
                 "active", "admitted_pages", "admitted_requests")

    def __init__(self, namespace: Namespace, requests: Iterator[IoRequest],
                 weight: float = 1.0):
        if weight <= 0.0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.namespace = namespace
        self.weight = weight
        self._requests = iter(requests)
        self.head: Optional[IoRequest] = None
        self.deficit = 0.0
        self.active = False
        self.admitted_pages = 0
        self.admitted_requests = 0
        self._pull()

    def _pull(self) -> None:
        """Advance to the next request, translating into device LPNs."""
        request = next(self._requests, None)
        if request is not None:
            ns = self.namespace
            request.start_lpn = ns.translate(request.start_lpn,
                                             request.page_count)
            request.tenant = ns.nsid
        self.head = request

    def pop(self) -> IoRequest:
        request = self.head
        if request is None:
            raise NamespaceError(
                f"namespace {self.namespace.name!r}: pop from drained queue"
            )
        self._pull()
        self.admitted_pages += request.page_count
        self.admitted_requests += 1
        return request


def drr_merge(
    queues: Sequence[TenantQueue],
    quantum_pages: int = DEFAULT_QUANTUM_PAGES,
) -> Iterator[IoRequest]:
    """Merge per-tenant queues into one admission-ordered stream.

    The virtual clock starts at the earliest pending arrival and only
    advances when no tenant is backlogged at the current instant, so
    tenants contending for the same instant are interleaved by deficit
    round-robin rather than raw arrival order.  The output stream's
    arrivals are monotone (late arrivals are clamped up to the running
    maximum — host-side queueing delay, identical to what a bounded NCQ
    window does to deferred requests).
    """
    if quantum_pages < 1:
        raise ValueError("quantum_pages must be >= 1")
    if not queues:
        return
    pending = [q for q in queues if q.head is not None]
    ring: deque = deque()
    clock = 0.0
    if pending:
        clock = min(q.head.arrival_us for q in pending)
    last_emitted = clock
    bus = BUS
    while pending:
        # Tenants whose head is due join the active ring in declaration
        # order (the deterministic tie-break for simultaneous arrivals).
        for q in pending:
            if not q.active and q.head.arrival_us <= clock:
                q.active = True
                ring.append(q)
        if not ring:
            clock = min(q.head.arrival_us for q in pending)
            continue
        q = ring.popleft()
        q.deficit += quantum_pages * q.weight
        # The head's fields are read once per emitted request; ``pop``
        # hands the head over and pulls its successor.
        head = q.head
        while head is not None:
            arrival = head.arrival_us
            pages = head.page_count
            if not (arrival <= clock and pages <= q.deficit):
                break
            request = q.pop()
            q.deficit -= pages
            if arrival < last_emitted:
                request.arrival_us = arrival = last_emitted
            else:
                last_emitted = arrival
            if bus.enabled:
                bus.emit(
                    "tenant", "admit", arrival, 0.0,
                    {"tenant": q.namespace.nsid, "lpn": request.start_lpn,
                     "pages": pages, "op": request.op.value},
                    "host:0", "i",
                )
            yield request
            head = q.head
        if head is None or head.arrival_us > clock:
            # Queue drained (for now): per classic DRR the deficit is
            # forfeited, and the tenant leaves the ring until its next
            # arrival is due.
            q.deficit = 0.0
            q.active = False
            if head is None:
                pending.remove(q)
        else:
            ring.append(q)
