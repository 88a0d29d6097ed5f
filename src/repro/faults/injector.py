"""Fault-aware flash operations.

The :class:`FaultInjector` sits between an FTL and the
``FlashArray``/``FlashTimekeeper`` pair.  Instrumented sites in the FTLs
call it instead of the raw allocator/clock when a fault plan is
attached; with no plan attached the FTLs run their original code paths
untouched (one ``is None`` check), keeping fault-free runs bit-identical.

Fault semantics
---------------

**Program failure** — the program pulse consumes the page and full
program latency, then the status check reports failure.  The page is
burned (``skip_page``) and the write is retried at the next free page of
the *same allocator* — for :class:`~repro.ftl.allocator.PlaneAllocator`
that means the same plane, preserving DLOOP's copy-back eligibility.
After ``program_fails_to_retire`` failures in one block, the block is
abandoned (allocator cursor reset) and queued for runtime retirement;
the owning FTL relocates its surviving valid pages and retires it via
``FlashArray.retire_block``.

**Erase failure** — the erase consumes latency and the cycle count, then
fails verification; the block joins ``FlashArray.force_retire`` so the
subsequent ``release_block`` retires it through the same release-time
branch the wear-out ``retirement_policy`` uses.

**Read errors** — correctable errors cost ``k`` extra read senses
(bounded by ``max_read_retries``); uncorrectable errors lose the page:
the FTL unmaps it and the controller surfaces the loss on the request.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from repro.faults.plan import READ_LOST, FaultPlan, FaultStats
from repro.obs.tracebus import BUS


class FaultInjector:
    """Deterministic fault injection over one array + timekeeper pair."""

    def __init__(self, array, clock, plan: FaultPlan):
        self.array = array
        self.clock = clock
        self.plan = plan
        self.stats = FaultStats()
        #: Blocks awaiting valid-page relocation + runtime retirement.
        self.pending_retirements: Deque[int] = deque()
        self._block_fail_counts: Dict[int, int] = {}

    # ---- program path ----------------------------------------------------

    def _note_program_failure(self, block: int, ppn: int, plane: int,
                              allocator) -> None:
        plan = self.plan
        stats = self.stats
        stats.program_failures += 1
        stats.sites.append(("program", plan.program_decisions - 1))
        count = self._block_fail_counts.get(block, 0) + 1
        self._block_fail_counts[block] = count
        retire = count >= plan.config.program_fails_to_retire
        if retire:
            # Abandon the block and queue it for retirement.  force_retire
            # also covers the race where GC erases it before the FTL
            # drains the queue: release_block then retires it directly.
            self.array.force_retire.add(block)
            self.pending_retirements.append(block)
            if allocator.current_block == block:
                allocator.current_block = None
        if BUS.enabled:
            BUS.emit("fault", "program_fail", 0.0, 0.0,
                     {"block": block, "ppn": ppn, "plane": plane,
                      "fails": count, "retire": retire,
                      "site": plan.program_decisions - 1}, None, "i")

    def program(self, allocator, owner: int, now: float) -> Tuple[int, float]:
        """Fault-aware ``allocator.allocate(owner)`` + program latency.

        Retries after a failed program stay on the allocator's plane
        (PlaneAllocator) or follow its normal roaming policy
        (RoamingAllocator).  Raises ``FlashStateError`` if the pool runs
        dry mid-retry, exactly like a plain allocation would.
        """
        array = self.array
        codec = array.codec
        t = now
        while True:
            block = allocator._ensure_block()
            offset = int(array.block_write_ptr[block])
            ppn = codec.block_first_ppn(block) + offset
            plane = codec.block_to_plane(block)
            if self.plan.next_program_fails():
                array.skip_page(ppn)
                self.clock.counters.skipped_pages += 1
                t = self.clock.program_page(plane, t)
                self._note_program_failure(block, ppn, plane, allocator)
                continue
            array.program(ppn, owner)
            t = self.clock.program_page(plane, t)
            return ppn, t

    def copyback(self, allocator, owner: int, parity: int,
                 now: float) -> Tuple[int, int, float]:
        """Fault-aware ``allocate_with_parity`` + copy-back latency.

        Returns ``(ppn, parity_skips, t)``.  A failed copy-back burns
        the target page and full copy-back latency, then retries at the
        next same-parity page of the same plane.  Pages wasted by
        failures are accounted in :class:`FaultStats`, not in the
        parity-skip count.
        """
        array = self.array
        ppb = array.geometry.pages_per_block
        t = now
        parity_skips = 0
        while True:
            block, offset, skipped = allocator.seek_parity(parity)
            parity_skips += skipped
            ppn = block * ppb + offset
            plane = allocator.plane
            if self.plan.next_program_fails():
                array.skip_page(ppn)
                self.clock.counters.skipped_pages += 1
                t = self.clock.copy_back(plane, t)
                self._note_program_failure(block, ppn, plane, allocator)
                continue
            array.program(ppn, owner)
            t = self.clock.copy_back(plane, t)
            return ppn, parity_skips, t

    # ---- erase path ------------------------------------------------------

    def check_erase(self, block: int) -> None:
        """Decide whether the erase of ``block`` just failed.

        Called after the erase state transition (the cycle is consumed
        either way); a failed block joins ``force_retire`` so the
        caller's ``release_block`` retires it.
        """
        if not self.plan.next_erase_fails():
            return
        self.array.force_retire.add(block)
        stats = self.stats
        stats.erase_failures += 1
        stats.sites.append(("erase", self.plan.erase_decisions - 1))
        if BUS.enabled:
            BUS.emit("fault", "erase_fail", 0.0, 0.0,
                     {"block": block, "site": self.plan.erase_decisions - 1},
                     None, "i")

    # ---- read path -------------------------------------------------------

    def read(self, plane: int, now: float, lpn: int | None = None) -> Tuple[float, int]:
        """Fault-aware host read: base latency plus retry senses.

        Returns ``(t, outcome)`` where outcome is 0 (clean), ``k > 0``
        (correctable after ``k`` retries, already charged), or
        ``READ_LOST`` (uncorrectable — the caller must unmap the page).
        ``lpn`` identifies the logical page for loss accounting (the
        torture ledger excuses lost pages from the durability oracle).
        """
        outcome = self.plan.next_read_outcome()
        t = self.clock.read_page(plane, now)
        if outcome == 0:
            return t, 0
        stats = self.stats
        if outcome == READ_LOST:
            stats.uncorrectable_reads += 1
            stats.sites.append(("read_loss", self.plan.read_decisions - 1))
            if BUS.enabled:
                args = {"plane": plane, "site": self.plan.read_decisions - 1}
                if lpn is not None:
                    args["lpn"] = lpn
                BUS.emit("fault", "read_loss", 0.0, 0.0, args, None, "i")
            return t, READ_LOST
        for _ in range(outcome):
            t = self.clock.read_page(plane, t)
        self.clock.counters.read_retries += outcome
        stats.read_retries += outcome
        stats.correctable_reads += 1
        if BUS.enabled:
            BUS.emit("fault", "read_retry", 0.0, 0.0,
                     {"plane": plane, "retries": outcome,
                      "site": self.plan.read_decisions - 1}, None, "i")
        return t, outcome
