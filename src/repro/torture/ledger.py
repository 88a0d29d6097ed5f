"""AckLedger: what has the host been *told* is durable?

The durability oracle needs two ledgers the simulator otherwise never
keeps: per LPN, the newest write generation whose request completed
without error (the host may rely on that content after a crash), and
the newest trim generation acknowledged (the host may rely on that
content being *gone*).  Generations are the issue-time counters the
flash array stamps into its modeled OOB area when
``enable_oob_generations()`` is armed, so ledger and flash state speak
the same vocabulary.

The controller calls :meth:`issued` synchronously before dispatching a
request (bumping the per-LPN generation the programs below will stamp)
and :meth:`completed` fires from ``Controller.on_complete`` when the
completion event — the host acknowledgement — is delivered.  Requests
in flight at a crash were never acknowledged: :meth:`drop_inflight`
forgets them, which is exactly the guarantee a real drive gives.
"""

from __future__ import annotations

import numpy as np

from repro.obs.schema import CAT_FAULT, EV_READ_LOSS
from repro.obs.tracebus import BUS, TraceEvent
from repro.sim.request import IoOp, IoRequest


class AckLedger:
    """Durability bookkeeping for one torture replay."""

    def __init__(self, ftl):
        array = ftl.array
        if array.lpn_gen is None:
            raise RuntimeError(
                "AckLedger requires FlashArray.enable_oob_generations()"
            )
        self.ftl = ftl
        self.array = array
        self.num_lpns = len(array.lpn_gen)
        #: newest acknowledged write generation per LPN (-1 = never)
        self.acked_write_np = np.full(self.num_lpns, -1, dtype=np.int64)
        #: newest acknowledged trim generation per LPN (-1 = never)
        self.acked_trim_np = np.full(self.num_lpns, -1, dtype=np.int64)
        #: LPNs whose content was lost to an uncorrectable read — media
        #: loss the oracle must not blame on crash recovery
        self.read_lost: set = set()
        #: LPNs touched by requests that completed *with* an error
        #: status (partially applied; no durability promise either way)
        self.indeterminate: set = set()
        # id(request) -> (request, kind, per-page generations); the
        # request object is pinned in the value so a recycled id() can
        # never alias a dead entry.
        self._inflight: dict = {}
        self._subscribed = False

    # ---- wiring ----------------------------------------------------------

    def baseline(self) -> None:
        """Mark the current (preconditioned) image as acknowledged.

        Every mapped LPN is durable at its current on-flash generation;
        losing one to a crash replay is as much a violation as losing a
        trace write.
        """
        pt = np.asarray(self.ftl.page_table_np)
        mapped = pt >= 0
        if mapped.any():
            self.acked_write_np[mapped] = self.array.page_gen_np[pt[mapped]]

    def attach_bus(self) -> None:
        """Listen for fault-path read losses (before any TortureArm!)."""
        if not self._subscribed:
            BUS.subscribe(self._on_event)
            self._subscribed = True

    def detach(self) -> None:
        if self._subscribed:
            BUS.unsubscribe(self._on_event)
            self._subscribed = False
        self._inflight.clear()

    def _on_event(self, event: TraceEvent) -> None:
        if event.category == CAT_FAULT and event.name == EV_READ_LOSS:
            lpn = (event.args or {}).get("lpn")
            if lpn is not None:
                self.read_lost.add(int(lpn))

    # ---- controller hooks ------------------------------------------------

    def issued(self, request: IoRequest) -> None:
        """Request admitted: stamp issue-time generations, pre-dispatch.

        Also clears any staged relocation generation — stage/consume
        pairs never legitimately cross a request boundary, and a pair
        orphaned by an aborted relocation must not leak into the next
        host write of the same owner.
        """
        self.array.clear_staged_gen()
        op = request.op
        start = request.start_lpn
        stop = start + request.page_count
        gen_arr = self.array.lpn_gen
        if op is IoOp.WRITE:
            gens = []
            for lpn in range(start, stop):
                gen = gen_arr[lpn] + 1
                gen_arr[lpn] = gen
                gens.append(gen)
            self._inflight[id(request)] = (request, "write", gens)
        elif op is IoOp.TRIM:
            # Snapshot, no bump: the trim supersedes every write issued
            # at or below the current generation.
            snap = [gen_arr[lpn] for lpn in range(start, stop)]
            self._inflight[id(request)] = (request, "trim", snap)
        else:
            self._inflight[id(request)] = (request, "read", None)

    def completed(self, request: IoRequest) -> None:
        """Completion delivered — the host acknowledgement instant."""
        entry = self._inflight.pop(id(request), None)
        if entry is None:
            return
        _, kind, gens = entry
        start = request.start_lpn
        if request.error is not None:
            if kind in ("write", "trim"):
                self.indeterminate.update(
                    range(start, start + request.page_count)
                )
            return
        if kind == "write":
            acked = self.acked_write_np
            for lpn, gen in zip(range(start, start + request.page_count), gens):
                if gen > acked[lpn]:
                    acked[lpn] = gen
        elif kind == "trim":
            acked = self.acked_trim_np
            for lpn, gen in zip(range(start, start + request.page_count), gens):
                if gen > acked[lpn]:
                    acked[lpn] = gen

    # ---- crash boundary --------------------------------------------------

    def drop_inflight(self) -> list:
        """Power cut: in-flight requests were never acknowledged.

        Returns them (for post-recovery replay decisions) and forgets
        them — their writes may or may not have reached flash, and the
        oracle demands nothing either way.
        """
        dropped = [entry[0] for entry in self._inflight.values()]
        self._inflight.clear()
        return dropped
