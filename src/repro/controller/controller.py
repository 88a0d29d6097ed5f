"""Request admission and page-level splitting (Section III.B).

The controller always aligns requests on page boundaries: a multi-page
request is split into one-page sub-requests that are dispatched to the
FTL individually (DLOOP then stripes them across planes via Eq. 1; the
tail is implicitly zero-padded to a full page).  A request completes
when its last sub-request finishes; sub-requests to distinct planes and
channels overlap — the resource timelines provide the out-of-order
"priority list" behaviour of the paper's extended simulator: a request
whose plane and channel are idle proceeds immediately even if earlier
requests are still queued elsewhere.
"""

from __future__ import annotations

import math
from heapq import heappush
from itertools import chain
from operator import attrgetter

from repro.ftl.base import Ftl, OutOfSpaceError
from repro.metrics.streaming import StreamingRequestStats
from repro.obs.tracebus import BUS
from repro.sim.engine import Engine
from repro.sim.request import OP_TRIM, OP_WRITE, IoRequest


_ARRIVAL = attrgetter("arrival_us")


class StreamOrderError(ValueError):
    """A streamed trace yielded an arrival earlier than its predecessor.

    ``submit_stream`` admits lazily from the current clock, so an
    out-of-order trace would silently be served in iterator order —
    raised instead.  Hand the trace to ``submit_many``, which sorts it.
    """


class StreamArmedError(ValueError):
    """``submit_stream`` while the previous stream still holds requests:
    replacing it would drop its unadmitted tail without a word."""


class Controller:
    """Feeds host requests through the FTL and records completions.

    ``backend`` is whatever serves page reads/writes — the FTL itself,
    or a :class:`repro.controller.writebuffer.WriteBuffer` wrapping it.
    """

    def __init__(self, engine: Engine, ftl: Ftl, backend=None):
        self.engine = engine
        self.ftl = ftl
        self.backend = backend if backend is not None else ftl
        self.stats = StreamingRequestStats()
        self.outstanding = 0
        #: high-water mark of ``outstanding`` over the whole run
        self.peak_outstanding = 0
        #: callbacks fired when the last outstanding request completes
        self.on_idle: list = []
        #: callbacks fired after every request completion (gets the request)
        self.on_complete: list = []
        #: durability bookkeeper (repro.torture.AckLedger) — None keeps
        #: the hot path free of any per-request overhead
        self.ledger = None
        #: per-tenant stats router (repro.tenancy.TenantStatsRouter) —
        #: set by its attach(); None for single-tenant runs
        self.tenants = None
        # Streaming admission (submit_stream): the not-yet-admitted tail
        # of the trace, the number of admitted-but-uncompleted streamed
        # requests, and whether admission is blocked on a full window.
        self._stream = None
        self._stream_depth: int | None = None
        self._stream_window = 0
        self._stream_deferred = False
        self._stream_last_arrival = -math.inf

    def submit_many(self, requests) -> int:
        """Submit a batch: stable sort by arrival, then streamed admission.

        The batch rides :meth:`submit_stream` with an unbounded window,
        so the event queue holds the requests in flight and one
        successor, never the batch.  An arrival earlier than the clock
        raises ``ValueError`` before anything is admitted, and a batch
        beside a stream that still holds unadmitted requests raises
        :class:`StreamArmedError`.  Returns the number of requests
        submitted.
        """
        batch = sorted(requests, key=_ARRIVAL)
        if not batch:
            return 0
        now = self.engine._now
        if batch[0].arrival_us < now:
            raise ValueError(f"cannot schedule at {batch[0].arrival_us} before now ({now})")
        self.submit_stream(iter(batch))
        return len(batch)

    def submit_stream(self, requests, queue_depth: int | None = None) -> None:
        """Lazily admit requests from an iterator (NCQ admission model).

        The one way a request reaches the device (:meth:`submit_many`
        sorts and calls this): it pulls from ``requests`` one at a time,
        so at most one not-yet-arrived request is in the event queue and
        a multi-million-request trace runs in O(1) controller memory.
        Arrivals must be time-ordered (the generators and trace parsers
        all are): out-of-order arrivals would silently be served in
        iterator order, so they raise :class:`StreamOrderError`.

        ``queue_depth`` bounds the admitted-but-uncompleted window, the
        way NCQ/host queue depth bounds a real drive: when the window is
        full, the next request is admitted only when a slot frees, at
        ``max(completion_now, its arrival time)``.  Its recorded
        response time still runs from the original arrival, so host-side
        queueing delay shows up in the latency stats.  ``None`` means
        unbounded: every request arrives exactly at its timestamp.  A
        closed loop at depth N is this window at ``queue_depth=N`` over
        arrivals that are all 0: a request enters when a slot frees.

        Event order: at equal time, what was posted first fires first,
        and an arrival is posted when its predecessor arrives — so a
        completion posted before that fires ahead of an arrival it ties.
        Raises :class:`StreamArmedError` while a previous stream still
        holds unadmitted requests.
        """
        if queue_depth is not None and queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        head = next(self._stream, None) if self._stream is not None else None
        if head is not None:
            self._stream = chain((head,), self._stream)
            raise StreamArmedError(
                f"the previous stream is still armed: {self._stream_window} admitted "
                f"requests in flight (last arrival {self._stream_last_arrival}) and "
                "an unadmitted tail; run it to completion or abort_stream() first"
            )
        self._stream = iter(requests)
        self._stream_depth = queue_depth
        self._stream_deferred = False
        self._stream_last_arrival = -math.inf
        self._admit()

    def _admit(self) -> None:
        """Schedule the next streamed arrival, if any and window permits.

        The body for ``submit_stream``'s first pull and ``_complete``'s
        deferred admission; ``_arrive_streamed`` spells the same steps
        inline for the per-request case.
        """
        if self._stream is None:
            return
        if self._stream_depth is not None and self._stream_window >= self._stream_depth:
            self._stream_deferred = True
            return
        request = next(self._stream, None)
        if request is None:
            self._stream = None
            return
        arrival = request.arrival_us
        if arrival < self._stream_last_arrival:
            self._refuse_unordered(request)
        self._stream_last_arrival = arrival
        self._stream_window += 1
        engine = self.engine
        now = engine._now
        engine.post(
            arrival if arrival > now else now, self._arrive_streamed, request
        )

    def _refuse_unordered(self, request: IoRequest) -> None:
        """A streamed arrival earlier than its predecessor (the rare
        branch of admission): drop the stream and raise."""
        predecessor = self._stream_last_arrival
        self.abort_stream()
        raise StreamOrderError(
            f"streamed arrival {request.arrival_us} precedes predecessor "
            f"{predecessor}; sort the trace"
        )

    def abort_stream(self) -> None:
        """Drop all streaming admission state (power loss mid-stream).

        Admitted-but-uncompleted streamed requests vanish with the event
        queue, exactly like NCQ slots on a real power cut; the
        not-yet-admitted tail stays in the caller's iterator, so the
        caller decides what (if anything) to replay after recovery.
        """
        self._stream = None
        self._stream_depth = None
        self._stream_window = 0
        self._stream_deferred = False
        self._stream_last_arrival = -math.inf

    def _arrive_streamed(self, request: IoRequest) -> None:
        # Pull the successor *before* serving this request so the next
        # arrival is scheduled from the current clock and takes its
        # sequence number ahead of this request's completion.
        # This is ``_admit`` and its ``Engine.post``, less the two calls.
        stream = self._stream
        if stream is not None:
            depth = self._stream_depth
            if depth is not None and self._stream_window >= depth:
                self._stream_deferred = True
            else:
                successor = next(stream, None)
                if successor is None:
                    self._stream = None
                else:
                    arrival = successor.arrival_us
                    if arrival < self._stream_last_arrival:
                        self._refuse_unordered(successor)
                    self._stream_last_arrival = arrival
                    self._stream_window += 1
                    engine = self.engine
                    now = engine._now
                    # Clamping to ``now`` is post's past-time guard here.
                    heappush(
                        engine._heap,
                        (arrival if arrival > now else now, next(engine._seq),
                         self._arrive_streamed, successor),
                    )
        self._arrive(request)

    def _arrive(self, request: IoRequest) -> None:
        # Outstanding counts *arrived* in-flight requests — the device
        # is idle (for background work) when this returns to zero.
        outstanding = self.outstanding + 1
        self.outstanding = outstanding
        if outstanding > self.peak_outstanding:
            self.peak_outstanding = outstanding
        engine = self.engine
        now = engine._now
        if BUS.enabled:
            BUS.counter("queue_depth", now, {"outstanding": self.outstanding})
            # Bracket the synchronous dispatch below: every flash event
            # emitted between io_begin and io_dispatch belongs to this
            # request's service (the simulator is single-threaded), which
            # is what gives the parallelism probe a per-request window.
            BUS.emit(
                "host", "io_begin", now, 0.0,
                {"lpn": request.start_lpn, "pages": request.page_count,
                 "op": request.op.value},
                "host:0", "i",
            )
        ledger = self.ledger
        if ledger is not None:
            # Must run before dispatch: the ledger stamps the issue-time
            # content generation that the flash programs below record.
            ledger.issued(request)
        faults = self.ftl.faults
        if faults is not None:
            retries_before = faults.stats.read_retries + faults.stats.program_failures
            lost_before = self.ftl.stats.lost_pages
        completion = now
        stats = self.stats
        start_lpn = request.start_lpn
        page_count = request.page_count
        lpns = range(start_lpn, start_lpn + page_count)
        try:
            op = request.op
            if op is OP_WRITE:
                end = self.backend.write_pages(lpns, now)
                completion = end if end > completion else completion
                stats.pages_written += page_count
            elif op is OP_TRIM:
                end = self.ftl.trim_pages(lpns, now)
                completion = end if end > completion else completion
                stats.pages_trimmed += page_count
            else:
                end = self.backend.read_pages(lpns, now)
                completion = end if end > completion else completion
                stats.pages_read += page_count
        except OutOfSpaceError as exc:
            # End of life: the device cannot place this request.  A real
            # drive returns an error status per request, it does not
            # brick — fail this one and keep serving the queue.  Pages
            # already placed before the error stay placed.
            request.error = str(exc) or "out of space"
            self.stats.failed_requests += 1
            if BUS.enabled:
                BUS.emit(
                    "host", "io_error", now, 0.0,
                    {"lpn": request.start_lpn, "pages": request.page_count,
                     "op": request.op.value, "error": request.error},
                    "host:0", "i",
                )
        if faults is not None:
            request.retries = (
                faults.stats.read_retries + faults.stats.program_failures
            ) - retries_before
            request.lost_pages = self.ftl.stats.lost_pages - lost_before
            if request.retries:
                self.stats.retried_requests += 1
                self.stats.total_retries += request.retries
            if request.lost_pages:
                self.stats.lost_pages += request.lost_pages
            # Blocks that crossed the program-failure threshold while
            # serving this request are retired here, between requests —
            # never mid-write (mirrors a controller's background task).
            completion = self.ftl.drain_retirements(completion)
        request.completion_us = completion
        if BUS.enabled:
            BUS.emit(
                "host", "io_dispatch", now, 0.0,
                {"lpn": request.start_lpn, "pages": request.page_count,
                 "op": request.op.value, "span_us": completion - now},
                "host:0", "i",
            )
        # ``engine.post(completion, self._complete, request)``, less the call.
        if completion < now:
            raise ValueError(f"cannot schedule at {completion} before now ({now})")
        heappush(engine._heap, (completion, next(engine._seq), self._complete, request))

    def _complete(self, request: IoRequest) -> None:
        outstanding = self.outstanding - 1
        self.outstanding = outstanding
        # Return the NCQ slot; if admission stalled on a full window,
        # the deferred request enters now (never earlier than its own
        # arrival time — see _admit).
        self._stream_window -= 1
        if self._stream_deferred:
            self._stream_deferred = False
            self._admit()
        response = request.completion_us - request.arrival_us
        error = request.error
        if BUS.enabled:
            args = {"lpn": request.start_lpn, "pages": request.page_count}
            # Only set under fault injection — the fault-free trace
            # stays byte-identical.
            if error is not None:
                args["error"] = error
            if request.retries:
                args["retries"] = request.retries
            if request.lost_pages:
                args["lost_pages"] = request.lost_pages
            BUS.emit(
                "host",
                request.op.value,
                request.arrival_us,
                response,
                args,
                "host:0",
            )
            BUS.counter("queue_depth", self.engine.now, {"outstanding": outstanding})
        for callback in self.on_complete:
            callback(request)
        if outstanding == 0:
            for callback in self.on_idle:
                callback()
        is_write = request.op is OP_WRITE
        if error is None:
            self.stats.observe(response, is_write)
        else:
            # ENOSPC'd requests still carry a completion time, but their
            # "response" measures rejection, not service — keep them out
            # of the success moments.
            self.stats.observe_error(response, is_write)
