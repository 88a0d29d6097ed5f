"""SimulatedSSD: the public facade tying engine + controller + FTL together.

This is the object examples and the experiment harness interact with:
construct it from a geometry/timing/FTL name, feed it page-aligned
requests (``repro.traces.stream.io_requests`` aligns a byte-addressed
trace) through ``run`` or ``run_stream``, and read the metrics off.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Tuple

from repro.controller.controller import Controller
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import Ftl
from repro.ftl.registry import create_ftl
from repro.metrics.streaming import StreamingRequestStats
from repro.sim.engine import Engine
from repro.sim.request import IoRequest

if TYPE_CHECKING:
    from repro.controller.writebuffer import WriteBuffer
    from repro.faults import FaultConfig, FaultInjector
    from repro.flash.badblocks import BadBlockManager
    from repro.lint.sanitizer import SimSanitizer


class SimulatedSSD:
    """A complete simulated flash SSD with a pluggable FTL."""

    def __init__(
        self,
        geometry: Optional[SSDGeometry] = None,
        timing: Optional[TimingParams] = None,
        *,
        ftl: str = "dloop",
        write_buffer_pages: Optional[int] = None,
        background_gc: bool = False,
        stats_interval_us: Optional[float] = None,
        sanitize: bool = False,
        faults: Optional["FaultConfig"] = None,
        bad_blocks=None,
        **ftl_kwargs,
    ):
        self.geometry = geometry if geometry is not None else SSDGeometry()
        self.timing = timing if timing is not None else TimingParams()
        self.engine = Engine()
        if isinstance(ftl, Ftl):
            self.ftl: Ftl = ftl
        else:
            self.ftl = create_ftl(ftl, self.geometry, self.timing, **ftl_kwargs)
        # Wear-out/factory bad-block model; attached before any traffic
        # so factory-bad sampling sees the fresh array.  ``bad_blocks``
        # may be True (defaults) or a dict of BadBlockManager kwargs.
        self.bad_blocks: Optional["BadBlockManager"] = None
        if bad_blocks:
            from repro.flash.badblocks import BadBlockManager

            bb_kwargs = bad_blocks if isinstance(bad_blocks, dict) else {}
            self.bad_blocks = BadBlockManager(self.ftl.array, **bb_kwargs)
        # Deterministic fault injection (repro.faults).  ``faults`` is a
        # FaultConfig (or a dict of its fields); None keeps every fault
        # seam on its zero-cost path.
        self.faults: Optional["FaultInjector"] = None
        if faults is not None:
            from repro.faults import FaultConfig, FaultInjector, FaultPlan

            if isinstance(faults, dict):
                faults = FaultConfig(**faults)
            self.faults = FaultInjector(
                self.ftl.array, self.ftl.clock, FaultPlan(faults)
            )
            self.ftl.attach_faults(self.faults)
        self.write_buffer: Optional["WriteBuffer"] = None
        backend = self.ftl
        if write_buffer_pages is not None:
            from repro.controller.writebuffer import WriteBuffer

            self.write_buffer = WriteBuffer(self.ftl, write_buffer_pages)
            backend = self.write_buffer
        self.controller = Controller(self.engine, self.ftl, backend)
        self.background_gc = None
        if background_gc:
            from repro.controller.background import BackgroundGc

            self.background_gc = BackgroundGc(self.engine, self.ftl, self.controller)
        self.run_stats = None
        if stats_interval_us is not None:
            from repro.obs.sampler import StatsSampler

            self._sampler = StatsSampler(
                self.engine, self.ftl, self.controller, stats_interval_us
            )
            self.run_stats = self._sampler.stats
        # Opt-in runtime invariant checking (repro-sim simulate --sanitize).
        # Attached before any flash activity so the shadow NAND model in
        # the sanitizer starts from the factory-fresh array state.
        self.sanitizer: Optional["SimSanitizer"] = None
        if sanitize:
            from repro.lint.sanitizer import SimSanitizer

            self.sanitizer = SimSanitizer(self.ftl)
            self.sanitizer.attach()

    # ---- running -----------------------------------------------------------------

    def run(self, requests: Iterable[IoRequest] = (), until: Optional[float] = None) -> float:
        """Submit ``requests`` and run the simulation to completion.

        The batch is sorted by arrival and admitted like an unbounded
        stream (:meth:`Controller.submit_many`): the run is event for
        event ``run_stream(iter(sorted_batch), queue_depth=None)``.
        """
        self.controller.submit_many(requests)
        end = self._run_engine(until)
        if self.sanitizer is not None:
            # Full coherence sweep once the event queue drains.
            self.sanitizer.check_now()
        return end

    def _run_engine(self, until: Optional[float]) -> float:
        try:
            return self.engine.run(until=until)
        except BaseException:
            # A raise mid-run (TortureCrash, SanitizerError, ...) must
            # not leave admission armed: a later run on the same
            # controller would inherit the unadmitted tail.  ``until=``
            # pauses return normally and keep the run resumable.
            self.controller.abort_stream()
            raise

    def run_stream(
        self,
        requests: Iterator[IoRequest],
        *,
        queue_depth: Optional[int] = None,
        until: Optional[float] = None,
    ) -> float:
        """Run a (possibly unbounded) request stream in bounded memory.

        ``requests`` is consumed lazily through the controller's NCQ
        admission window (:meth:`Controller.submit_stream`): at most one
        not-yet-arrived request sits in the event queue, so replaying a
        multi-million-request trace costs O(1) simulator memory on top
        of the flash state.  With ``queue_depth=None`` the run is event
        for event :meth:`run` on the materialized list.  An
        out-of-order arrival raises
        :class:`repro.controller.controller.StreamOrderError`.
        """
        self.controller.submit_stream(requests, queue_depth=queue_depth)
        end = self._run_engine(until)
        if self.sanitizer is not None:
            self.sanitizer.check_now()
        return end

    # ---- preconditioning ------------------------------------------------------

    def precondition(self, fill_fraction: float = 0.9) -> None:
        """Age the device: sequentially write a fraction of the logical space.

        Standard SSD evaluation methodology — a factory-fresh device
        never garbage-collects, so experiments that exercise GC first
        fill the drive.  Timing and counters are reset afterwards so
        measurements reflect only the trace (mapping caches stay warm).
        """
        if not 0.0 < fill_fraction <= 1.0:
            raise ValueError("fill_fraction must be in (0, 1]")
        self.ftl.bulk_fill(int(self.geometry.num_lpns * fill_fraction))
        self.reset_measurements()

    def reset_measurements(self) -> None:
        """Zero timing and *all* measurement counters; keep flash state.

        The measurement boundary between preconditioning and the
        measured trace.  Everything that accumulates per-run statistics
        is reset here — controller request stats, FTL host/GC counters,
        write-buffer hit/eviction counters, fault accounting — while
        physical state (flash contents, mapping caches, wear, pending
        block retirements) is deliberately kept.
        """
        self.ftl.clock.reset_measurements()
        from repro.ftl.base import FtlStats
        from repro.ftl.gcontrol import GcStats

        self.ftl.gc_stats = GcStats()
        self.ftl.stats = FtlStats()
        self.controller.stats = StreamingRequestStats()
        self.controller.peak_outstanding = 0
        if self.write_buffer is not None:
            from repro.controller.writebuffer import WriteBufferStats

            self.write_buffer.stats = WriteBufferStats()
        if self.faults is not None:
            self.faults.stats.reset()

    # ---- results -----------------------------------------------------------------

    @property
    def stats(self) -> StreamingRequestStats:
        return self.controller.stats

    @property
    def counters(self):
        return self.ftl.clock.counters

    def mean_response_ms(self) -> float:
        return self.stats.mean_response_ms()

    def power_cycle(self) -> int:
        """Simulate power loss + recovery: volatile state is lost, the
        mapping is rebuilt from flash metadata.  Returns the number of
        recovered mappings.  (An unflushed write buffer is lost data —
        flush first if that matters to the experiment.)"""
        if self.write_buffer is not None:
            self.write_buffer.discard()
        recovered = self.ftl.recover()
        self.ftl.clock.reset_measurements()
        return recovered

    def crash(self) -> dict:
        """Power-fail the device *now* and recover it.

        Everything a real controller keeps in volatile memory vanishes:
        queued/in-flight engine events, the DRAM write buffer, mapping
        caches, allocator cursors, and not-yet-persisted fault
        bookkeeping.  The mapping is then rebuilt from on-flash OOB
        owner metadata (plus the MapJournal for hybrid FTLs) and, when
        a sanitizer is attached, validated against its shadow model.

        Returns a summary dict; the device is usable afterwards
        (submit more requests and ``run()`` again).
        """
        from repro.obs.tracebus import BUS

        now = self.engine.now
        dropped = self.engine.clear_pending()
        self.controller.outstanding = 0
        # NCQ admission state is volatile too: admitted-but-uncompleted
        # streamed requests are gone with the event queue, and the
        # not-yet-admitted tail stays with whoever owns the iterator.
        self.controller.abort_stream()
        lost_buffered = 0
        if self.write_buffer is not None:
            lost_buffered = self.write_buffer.discard()
        recovered = self.ftl.recover()
        if self.sanitizer is not None:
            self.sanitizer.check_now()
        sampler = getattr(self, "_sampler", None)
        if sampler is not None:
            # its armed tick was dropped with the rest of the queue
            sampler.rearm()
        if BUS.enabled:
            BUS.emit(
                "host", "power_loss", now, 0.0,
                {"dropped_events": dropped, "lost_buffered": lost_buffered,
                 "recovered": recovered}, "host:0", "i",
            )
        return {
            "at_us": now,
            "dropped_events": dropped,
            "lost_buffered_pages": lost_buffered,
            "recovered_mappings": recovered,
        }

    def run_with_crash(
        self,
        requests: Iterable[IoRequest],
        crash_at_us: float,
        *,
        queue_depth: Optional[int] = None,
    ) -> Tuple[dict, Iterator[IoRequest]]:
        """Replay ``requests`` up to ``crash_at_us``, then power-fail and
        recover.

        Only requests that arrive before the crash instant are admitted
        (through the NCQ window, bounded by ``queue_depth``); the
        admitted-but-uncompleted ones are lost with the power cut.
        Returns the :meth:`crash` summary and the iterator to resume
        from on the recovered device: the pre-crash requests the window
        never admitted, then the first request at or after the crash,
        then the rest of ``requests``.
        """
        requests = iter(requests)
        first_after: list = []

        def before_crash() -> Iterator[IoRequest]:
            for request in requests:
                if request.arrival_us >= crash_at_us:
                    first_after.append(request)
                    return
                yield request

        head = before_crash()
        self.controller.submit_stream(head, queue_depth=queue_depth)
        self._run_engine(crash_at_us)
        return self.crash(), chain(head, first_after, requests)

    def flush(self) -> float:
        """Drain the write buffer (no-op without one)."""
        if self.write_buffer is None:
            return self.engine.now
        return self.write_buffer.flush(self.engine.now)

    def verify(self) -> None:
        """Run the FTL's full integrity check."""
        self.ftl.verify_integrity()
