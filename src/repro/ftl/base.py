"""Abstract FTL interface and shared bookkeeping.

Every FTL owns a :class:`FlashArray` (physical state) and a
:class:`FlashTimekeeper` (timing) and exposes two entry points the
controller calls per logical page:

* ``read_page(lpn, start) -> completion time``
* ``write_page(lpn, start) -> completion time``

The *authoritative* logical-to-physical map is the in-memory
``page_table`` (as in FlashSim); SRAM-constrained FTLs (DLOOP, DFTL)
additionally run a CMT/GTD model that charges the flash traffic a real
controller would pay for mapping lookups.
"""

from __future__ import annotations

import abc
import random
from array import array as arr_mod
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.flash.address import OWNER_NONE, PageState
from repro.flash.array import FlashArray, FlashStateError
from repro.flash.geometry import SSDGeometry
from repro.flash.timekeeper import FlashTimekeeper
from repro.flash.timing import TimingParams
from repro.ftl.coherence import (
    FORWARD_OWNER,
    FORWARD_STATE,
    REVERSE,
    coherence_findings,
    mapping_stores,
    translation_tvpn,
)
from repro.ftl.gcontrol import VICTIM_POLICIES, GcStats, parity_minimizing_order, select_victim
from repro.obs.tracebus import BUS


def _integrity_text(stores, kind: str, bad: np.ndarray) -> str:
    """``verify_integrity``'s message for one coherence finding."""
    if kind == FORWARD_STATE:
        return f"mapped lpns pointing at non-valid pages: {bad[:10]}"
    if kind == FORWARD_OWNER:
        return f"page owner mismatch for lpns: {bad[:10]}"
    if kind == REVERSE:
        return "valid data page not referenced by page_table"
    if len(stores) == 3:  # no GTD: no page may carry a non-data owner
        return f"unexpected translation pages: {bad[:10]}"
    ppn = int(bad[0])
    tvpn = translation_tvpn(int(stores[2][ppn]))
    return f"GTD stale for tvpn {tvpn}: {stores[3][tvpn]} != {ppn}"


#: Blocks per ``arange`` in :func:`block_lpns`.
_FILL_BATCH = 4096

#: Victim collections one host operation may fund (bounded foreground GC).
MAX_GC_PASSES = 8

#: Seed of the RNG behind the randomised victim policies.
GC_POLICY_SEED = 0


def block_lpns(n_blocks: int, ppb: int) -> Iterator[np.ndarray]:
    """The int32 LPNs ``i * ppb .. (i + 1) * ppb - 1`` of each logical
    block ``i < n_blocks``, as row views of one ``arange`` per
    ``_FILL_BATCH`` blocks: a bulk fill's owners without a numpy call
    per block, and without an array the size of the fill."""
    for start in range(0, n_blocks, _FILL_BATCH):
        stop = min(start + _FILL_BATCH, n_blocks)
        yield from np.arange(start * ppb, stop * ppb, dtype=np.int32).reshape(-1, ppb)


class OutOfSpaceError(RuntimeError):
    """The device cannot reclaim enough space to continue."""


@dataclass
class FtlStats:
    host_reads: int = 0
    host_writes: int = 0
    host_trims: int = 0
    unmapped_reads: int = 0
    #: pages lost to uncorrectable read errors (repro.faults)
    lost_pages: int = 0


class Ftl(abc.ABC):
    """Base class for all flash translation layers."""

    name = "abstract"
    #: Whether this FTL has fault-injection seams (repro.faults).  FTLs
    #: without them reject ``attach_faults`` rather than silently run a
    #: fault plan that can never fire.
    fault_injection_supported = False
    #: Whether GC moves pages by copy-back (same plane, same parity,
    #: Section III.A) when the destination allows it, or always through
    #: the controller.
    use_copyback = False

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        gc_threshold: int = 3,
        gc_victim_policy: str = "greedy",
        debug_checks: bool = False,
    ):
        if gc_victim_policy not in VICTIM_POLICIES:
            raise ValueError(f"gc_victim_policy must be one of {VICTIM_POLICIES}")
        if gc_threshold < 2:
            raise ValueError("gc_threshold must be >= 2 (GC needs a spare destination block)")
        self.geometry = geometry
        self.timing = timing if timing is not None else TimingParams()
        self.array = FlashArray(geometry)
        self.clock = FlashTimekeeper(geometry, self.timing)
        self.codec = self.array.codec
        # Flat four-byte map (scalar-fast; PPNs fit below
        # geometry.MAX_PAGES) plus a zero-copy numpy view for the
        # vectorised paths (bulk fill, recovery, integrity scans).
        self.page_table = arr_mod("i", [-1]) * geometry.num_lpns
        self.page_table_np = np.frombuffer(self.page_table, dtype=np.int32)
        self.gc_threshold = gc_threshold
        self.array.register_gc_threshold(gc_threshold)
        self.gc_victim_policy = gc_victim_policy
        self._gc_rng = random.Random(GC_POLICY_SEED)
        self.debug_checks = debug_checks
        self.stats = FtlStats()
        self.gc_stats = GcStats()
        self._gc_planes: set[int] = set()
        self._gc_pending: set[int] = set()
        #: FaultInjector when fault injection is active, else None.  Hot
        #: paths guard with a single ``is None`` check so fault-free runs
        #: execute the exact original operation sequence.
        self.faults = None

    # ---- host interface ---------------------------------------------------

    @abc.abstractmethod
    def read_page(self, lpn: int, start: float) -> float:
        """Serve a one-page read; returns completion time."""

    @abc.abstractmethod
    def write_page(self, lpn: int, start: float) -> float:
        """Serve a one-page write/update; returns completion time."""

    def write_pages(self, lpns, start: float) -> float:
        """Serve a multi-page write; returns the last completion time.

        Default: independent per-page writes (they already overlap
        across planes/channels through the resource timelines).
        """
        completion = start
        for lpn in lpns:
            end = self.write_page(lpn, start)
            if end > completion:
                completion = end
        return completion

    def read_pages(self, lpns, start: float) -> float:
        """Serve a multi-page read; returns the last completion time."""
        completion = start
        for lpn in lpns:
            end = self.read_page(lpn, start)
            if end > completion:
                completion = end
        return completion

    def trim_page(self, lpn: int, start: float) -> float:
        """Discard a logical page (TRIM): its flash copy becomes garbage.

        The base implementation invalidates the current copy and clears
        the mapping; subclasses with persistent mapping structures
        override to also charge the mapping update.
        """
        self.check_lpn(lpn)
        ppn = self.current_ppn(lpn)
        if ppn == -1:
            return start
        self.array.invalidate(ppn)
        self.page_table[lpn] = -1
        self.stats.host_trims += 1
        return start

    def trim_pages(self, lpns, start: float) -> float:
        """Discard a run of logical pages."""
        completion = start
        for lpn in lpns:
            completion = max(completion, self.trim_page(lpn, start))
        return completion

    # ---- garbage-collection orchestration -----------------------------------
    #
    # Shared by the page-mapping FTLs (DLOOP, DFTL, PageMap).  A GC
    # *pass* reclaims one victim block (``_collect``); subclasses supply
    # policy only: ``_gc_exclude``, ``_gc_destinations``, ``use_copyback``.
    # Passes never nest: a trigger that fires while a pass is running
    # (e.g. a translation write-back landing on another low plane) is
    # queued and drained between passes.  This mirrors how a real
    # controller serialises GC work per die while keeping every plane's
    # free pool above the threshold (Section III.C).

    def _gc_exclude(self, plane: int) -> set:
        """Blocks GC must not victimise on ``plane`` (active write points)."""
        raise NotImplementedError

    def _gc_destinations(self, plane: int) -> tuple:
        """``(data_allocator, translation_allocator)``: the write points
        that take the pages GC moves off a victim on ``plane``."""
        raise NotImplementedError

    def _gc_close_active(self, plane: int) -> Optional[int]:
        """Give up the plane's GC write block for emergency GC.

        Returns the closed block (now a legal victim) or None.  Only
        called when the plane has zero free blocks and no other victim.
        """
        allocator = self._gc_destinations(plane)[0]
        block = allocator.current_block
        if allocator.plane != plane or block is None or self.array.block_invalid[block] == 0:
            return None
        allocator.current_block = None
        return block

    def _gc_max_valid(self, plane: int) -> Optional[int]:
        """Most valid pages a victim on ``plane`` may carry (feasibility).

        None means unconstrained: the destination roams, so one plane's
        pool does not bound the move.  A destination bound to the plane
        must fit the victim in the plane's own space, with one free
        block held back for the pass's translation write-backs.
        Parity-minimising move ordering keeps same-parity waste near the
        even/odd imbalance (paper: "rarely happens"), so copy-back
        allows for waste up to ~half the moves; if waste still overruns
        the plane mid-pass, ``_collect`` degrades the remaining moves to
        cross-plane controller copies instead of failing.
        """
        allocator = self._gc_destinations(plane)[0]
        if allocator.plane != plane:
            return None
        block = allocator.current_block
        current_free = self.array.block_free_pages(block) if block is not None else 0
        ppb = self.geometry.pages_per_block
        avail = current_free + max(0, self.array.free_block_count(plane) - 1) * ppb
        return (avail * 2) // 3 if self.use_copyback else avail

    def _gc_alloc_any(self, owner: int) -> int:
        """Program ``owner`` on the plane with the most free blocks (the
        cross-plane escape of overflowing and emergency passes)."""
        pools = self.array._free_pools
        dst = max(range(len(pools)), key=lambda p: len(pools[p]))
        try:
            return self._gc_destinations(dst)[0].allocate(owner)
        except FlashStateError as exc:
            raise OutOfSpaceError("no plane can absorb relocated pages — device full") from exc

    def _maybe_gc(self, plane: int, now: float) -> float:
        if self._gc_planes:
            # A pass is already running somewhere.  Never nest: mid-pass
            # allocations are protected by the feasibility reserve and
            # the translation-write fallback, and the top-level drain
            # loop will service this plane right after the current pass.
            self._gc_pending.add(plane)
            return now
        if self.array.gc_low_plane_count == 0:
            # O(1) fast path: the array tracks how many planes sit below
            # the registered threshold; nothing low means the scan below
            # would build an empty queue and return — skip it.
            return now
        # Device-wide scan: a plane that no longer receives writes (its
        # pool ran dry, so allocators avoid it) must still be collected,
        # or its garbage is stranded forever.
        pools = self.array._free_pools
        threshold = self.gc_threshold
        queue = {p for p, pool in enumerate(pools) if len(pool) < threshold}
        if not queue:
            return now
        self.gc_stats.invocations += 1
        if BUS.enabled:
            BUS.emit("gc", "gc_invocation", now, 0.0,
                     {"trigger_plane": plane, "low_planes": sorted(queue)}, None, "i")
        t = now
        # Bounded foreground GC: each host operation funds at most
        # ``MAX_GC_PASSES`` victim collections, spent on the most
        # starved planes first (the triggering plane ties at its free
        # count).  Planes still below threshold are picked up by the
        # next operation — incremental reclamation, never a device-wide
        # stop-the-world sweep per write.
        budget = MAX_GC_PASSES
        gc_stats = self.gc_stats
        while queue and budget > 0:
            # The triggering plane first — its caller is about to
            # allocate on it; then most-starved planes.
            if plane in queue and len(pools[plane]) < threshold:
                p = plane
            else:
                # Total ordering: ties on free count break by plane id,
                # never by set iteration order (determinism lint DL103).
                p = min(queue, key=lambda q: (len(pools[q]), q))
            queue.discard(p)
            if len(pools[p]) >= threshold:
                continue
            passes_before = gc_stats.passes
            t = self._gc_pass(p, t)
            budget -= 1
            if len(pools[p]) < threshold:
                queue.add(p)
            queue |= self._gc_pending
            self._gc_pending.clear()
            if gc_stats.passes == passes_before:
                # A fruitless pass (no feasible victim, plane not
                # cornered) changed nothing: no array or allocator
                # state, no RNG draw (``select_victim`` draws only among
                # candidates), no event.  ``p`` is still low, so it is
                # back in ``queue`` and would be picked again — the
                # trigger plane by the first branch, otherwise as the
                # minimum it already was; what ``_gc_pending`` merged in
                # is either queued already or not low, never the
                # minimum — with the same outcome until the budget ran
                # out.  Stop here instead.
                break
        self._gc_pending |= queue
        gc_stats.busy_us += t - now
        return t

    def background_collect(self, now: float, target_free: Optional[int] = None) -> tuple:
        """Run at most one proactive GC pass during device idle time.

        ``target_free`` is the free-block level background GC tops
        planes up to (default: twice the foreground threshold).
        Returns ``(time_after, did_work)``; callers re-invoke while the
        device stays idle and ``did_work`` is True.
        """
        if self._gc_planes:
            return now, False
        if target_free is None:
            target_free = 2 * self.gc_threshold
        needy = [
            p
            for p in range(self.geometry.num_planes)
            if self.array.free_block_count(p) < target_free
        ]
        if not needy:
            return now, False
        plane = min(needy, key=self.array.free_block_count)
        total_free_before = sum(
            self.array.free_block_count(p) for p in range(self.geometry.num_planes)
        )
        t = self._gc_pass(plane, now)
        total_free_after = sum(
            self.array.free_block_count(p) for p in range(self.geometry.num_planes)
        )
        # Progress means net free space gained; a churn pass (erase
        # balanced by destination allocations) must not keep the idle
        # loop spinning forever.
        did_work = total_free_after > total_free_before
        if did_work:
            self.gc_stats.background_passes += 1
        return t, did_work

    def _gc_pass(self, plane: int, now: float) -> float:
        exclude = self._gc_exclude(plane)
        victim = select_victim(
            self.array,
            plane,
            exclude=exclude,
            max_valid=self._gc_max_valid(plane),
            policy=self.gc_victim_policy,
            rng=self._gc_rng,
        )
        emergency = False
        if victim is None:
            if self.array.free_block_count(plane) >= 2:
                # Nothing feasible yet; not cornered — future updates
                # will create better victims.
                return now
            # Cornered: relocate a victim's pages to *other* planes
            # through the controller rather than deadlock this plane.
            victim = select_victim(
                self.array, plane, exclude=exclude,
                policy=self.gc_victim_policy, rng=self._gc_rng,
            )
            if victim is None and self.array.free_block_count(plane) == 0:
                # Last resort: the only invalid pages may sit in the
                # active write block itself — close it and collect it.
                victim = self._gc_close_active(plane)
            if victim is None:
                # Nothing reclaimable at all (every block fully valid).
                # Not fatal by itself: other planes may serve the write,
                # and future updates create invalid pages here.  A write
                # that genuinely cannot be placed raises OutOfSpaceError
                # at the allocation site.
                return now
            emergency = True
        if BUS.enabled:
            BUS.emit("gc", "victim_selected", now, 0.0,
                     {"plane": plane, "victim": victim,
                      "valid": int(self.array.block_valid[victim]),
                      "invalid": int(self.array.block_invalid[victim]),
                      "emergency": emergency},
                     None, "i")
        moved_before = self.gc_stats.moved_pages
        copyback_before = self.gc_stats.copyback_moves
        self._gc_planes.add(plane)
        try:
            t = self._collect(plane, victim, now, emergency)
        finally:
            self._gc_planes.discard(plane)
        self.gc_stats.passes += 1
        if emergency:
            self.gc_stats.emergency_passes += 1
        if BUS.enabled:
            BUS.emit("gc", "gc_pass", now, t - now,
                     {"plane": plane, "victim": victim, "emergency": emergency,
                      "moved_pages": self.gc_stats.moved_pages - moved_before,
                      "copyback_moves": self.gc_stats.copyback_moves - copyback_before},
                     f"plane:{plane}")
        return t

    # -- the relocate-and-erase procedure (Section III.C, Fig. 5) ------------------

    def _gc_note_move(self, owner: int, new_ppn: int, moved_data: list) -> None:
        """Record a relocated page's new home (default: data pages only)."""
        self.page_table[owner] = new_ppn
        moved_data.append((owner, new_ppn))

    def _gc_mapping_updates(self, moved_data: list, now: float) -> float:
        """Charge mapping-structure updates after moves (default: free)."""
        return now

    def _collect(self, plane: int, victim: int, now: float, emergency: bool = False) -> float:
        """Move ``victim``'s valid pages away, erase it, persist the
        mapping updates; returns the time afterwards.

        Pages go to the ``_gc_destinations`` write points — by copy-back
        under the same-parity rule when ``use_copyback``, else through
        the controller.  When the destination runs out of space mid-pass
        the remaining moves degrade to controller copies onto whichever
        plane has room (``_gc_alloc_any``); an *emergency* pass (the
        plane is cornered, no victim fits it) starts out that way.
        """
        array = self.array
        clock = self.clock
        gc_stats = self.gc_stats
        page_owner = array.page_owner
        pages_per_plane = self.geometry.pages_per_plane
        first_ppn = victim * self.geometry.pages_per_block
        data_allocator, translation_allocator = self._gc_destinations(plane)
        use_copyback = self.use_copyback and not emergency
        faults = self.faults
        t = now
        moved_data: list = []
        valids = list(array.valid_pages_in_block(victim))
        if use_copyback:
            # Lazy: the generator re-reads the destination offset after
            # each allocation so parities interleave correctly (and an
            # empty pool raises out of the pass from there).
            valids = parity_minimizing_order(valids, self.codec, data_allocator)
        overflow = emergency  # destination space exhausted: degrade moves
        for ppn in valids:
            owner = page_owner[ppn]
            if array.page_gen is not None:
                array.stage_copy_gen(ppn)
            move_start = t
            allocator = data_allocator if owner >= 0 else translation_allocator
            if not overflow:
                try:
                    if not use_copyback:
                        new_ppn = allocator.allocate(owner)
                    elif faults is None:
                        new_ppn, skipped = allocator.allocate_with_parity(
                            owner, (ppn - first_ppn) & 1)
                    else:
                        # Fault-aware copy-back: failed programs burn pages
                        # and retry at the next same-parity page, same plane.
                        new_ppn, skipped, t = faults.copyback(
                            allocator, owner, (ppn - first_ppn) & 1, t)
                except FlashStateError:
                    overflow = True
            if overflow:
                new_ppn = self._gc_alloc_any(owner)
            through_controller = overflow or not use_copyback
            if through_controller:
                t = clock.inter_plane_copy(plane, new_ppn // pages_per_plane, t)
                gc_stats.controller_moves += 1
            else:
                gc_stats.wasted_pages += skipped
                clock.counters.skipped_pages += skipped
                if faults is None:
                    t = clock.copy_back(plane, t)
                gc_stats.copyback_moves += 1
            array.invalidate(ppn)
            gc_stats.moved_pages += 1
            if BUS.enabled:
                BUS.emit("gc", "migrate", move_start, 0.0,
                         {"plane": plane, "from_ppn": int(ppn), "to_ppn": int(new_ppn),
                          "mode": "controller" if through_controller else "copyback"},
                         None, "i")
            self._gc_note_move(owner, new_ppn, moved_data)
        # Erase before the mapping updates: the pool is at its low-water
        # mark here, and translation write-backs themselves consume pages.
        t = self._erase_block(victim, t)
        return self._gc_mapping_updates(moved_data, t)

    def _erase_block(self, block: int, now: float) -> float:
        """Erase ``block`` and return it to its plane's pool (or retire
        it, when the erase fails or wear-out says so)."""
        t = self.clock.erase_block(self.codec.block_to_plane(block), now)
        self.array.erase(block)
        if self.faults is not None:
            self.faults.check_erase(block)
        self.array.release_block(block)
        self.gc_stats.erased_blocks += 1
        return t

    # ---- fault injection (repro.faults) -----------------------------------------

    def _all_allocators(self):
        """Every write-point allocator (cursor reset on retirement/crash)."""
        return ()

    def attach_faults(self, injector) -> None:
        """Activate fault injection; instrumented sites start consulting
        the injector's :class:`~repro.faults.plan.FaultPlan`."""
        if not self.fault_injection_supported:
            raise ValueError(
                f"FTL {self.name!r} has no fault-injection seams; "
                "use dloop, dftl, or fast"
            )
        self.faults = injector

    def _fault_relocation_alloc(self, owner: int, src_plane: int) -> int:
        """Destination for a page relocated off a retiring block.

        Default: anywhere with space.  DLOOP overrides to prefer the
        source plane (copy-back eligibility, Section III.B).
        """
        return self._gc_alloc_any(owner)

    def _retire_block_runtime(self, block: int, now: float) -> float:
        """Relocate surviving valid pages off ``block`` and retire it.

        The runtime bad-block path: after repeated program failures (or
        an external bad-block scan) a still-allocated block with live
        data leaves circulation.  Mapping updates are charged *after*
        the block is retired so any GC they trigger cannot re-select it.
        """
        t = now
        src_plane = self.codec.block_to_plane(block)
        for allocator in self._all_allocators():
            if allocator.current_block == block:
                allocator.current_block = None
        moved_data: list = []
        for ppn in list(self.array.valid_pages_in_block(block)):
            owner = self.array.owner_of(ppn)
            self.array.stage_copy_gen(ppn)
            new_ppn = self._fault_relocation_alloc(owner, src_plane)
            dst_plane = self.codec.ppn_to_plane(new_ppn)
            t = self.clock.inter_plane_copy(src_plane, dst_plane, t)
            self.gc_stats.controller_moves += 1
            self.gc_stats.moved_pages += 1
            self.array.invalidate(ppn)
            self._gc_note_move(owner, new_ppn, moved_data)
            if self.faults is not None:
                self.faults.stats.relocated_pages += 1
            if BUS.enabled:
                BUS.emit("fault", "relocate", t, 0.0,
                         {"block": block, "from_ppn": int(ppn),
                          "to_ppn": int(new_ppn), "src_plane": src_plane,
                          "dst_plane": dst_plane}, None, "i")
        self.array.retire_block(block)
        if self.faults is not None:
            self.faults.stats.blocks_retired += 1
        if BUS.enabled:
            BUS.emit("fault", "block_retired", t, 0.0,
                     {"block": block, "plane": src_plane}, None, "i")
        return self._gc_mapping_updates(moved_data, t)

    def drain_retirements(self, now: float) -> float:
        """Process blocks queued for retirement by program failures.

        A device too full to absorb the relocated pages keeps the block
        in the queue and retries on a later drain (GC may free space in
        between); retirement must never kill the run.
        """
        faults = self.faults
        if faults is None or not faults.pending_retirements:
            return now
        t = now
        pending = faults.pending_retirements
        while pending:
            block = pending.popleft()
            if self.array.is_block_bad(block):
                continue  # GC already erased + retired it via force_retire
            try:
                t = self._retire_block_runtime(block, t)
            except OutOfSpaceError:
                # Partial relocation is safe to resume: moved pages are
                # already invalidated on the source block.
                pending.appendleft(block)
                break
        return t

    def retire_block_now(self, block: int, now: float = 0.0) -> float:
        """Retire ``block`` immediately (external bad-block scan).

        Handles every block state: pooled free blocks leave the pool,
        in-use blocks first have their valid pages relocated.  Returns
        the time after any relocation traffic.
        """
        if self.array.is_block_bad(block):
            return now
        if self.array.is_block_free(block):
            self.array.mark_bad(block)
            return now
        return self._retire_block_runtime(block, now)

    def _fault_read_data(self, lpn: int, ppn: int, now: float) -> float:
        """Fault-aware host data read; unmaps the page on an
        uncorrectable error (data loss surfaced via ``stats.lost_pages``
        and the per-request accounting in the controller)."""
        from repro.faults.plan import READ_LOST

        t, outcome = self.faults.read(self.codec.ppn_to_plane(ppn), now, lpn=lpn)
        if outcome == READ_LOST:
            self.array.invalidate(ppn)
            self.page_table[lpn] = -1
            self.stats.lost_pages += 1
            t = self._note_page_loss(lpn, t)
        return t

    def _note_page_loss(self, lpn: int, now: float) -> float:
        """Hook: charge mapping-structure updates for a lost page."""
        return now

    # ---- preconditioning ------------------------------------------------------

    def bulk_fill(self, count: int) -> None:
        """Sequentially write LPNs ``0..count-1`` as fast as possible.

        Used to age a device before measuring.  The default walks the
        normal write path; subclasses override with a vectorised
        equivalent that produces the same end state.
        """
        for lpn in range(count):
            self.write_page(lpn, 0.0)

    def _bulk_fill_striped(self, count: int) -> None:
        """Vectorised fill, LPN-striped layout (Eq. 1): plane
        ``lpn % planes``, whole blocks at a time."""
        ppb = self.geometry.pages_per_block
        planes = self.geometry.num_planes
        tails = []
        for plane in range(planes):
            lpns = np.arange(plane, count, planes, dtype=np.int32)
            full = (len(lpns) // ppb) * ppb
            for start in range(0, full, ppb):
                block = self.array.allocate_block(plane)
                first = plane + start * planes
                # the chunk's LPNs, as a strided slice (no index array)
                self.page_table_np[first : first + ppb * planes : planes] = (
                    self.array.bulk_fill_block(block, lpns[start : start + ppb])
                )
            # a copy: a view would keep the plane's whole LPN array alive
            tails.append(lpns[full:].tolist())
        # the striped tails go through the normal write path
        for tail in tails:
            for lpn in tail:
                self.write_page(lpn, 0.0)

    def _bulk_fill_blocks(self, count: int) -> None:
        """Vectorised fill, block-granular layout: consecutive LPNs fill
        a block, blocks round-robin across planes (the balanced steady
        state a roaming or random write point converges to)."""
        ppb = self.geometry.pages_per_block
        planes = self.geometry.num_planes
        full_blocks = count // ppb
        for i, lpns in enumerate(block_lpns(full_blocks, ppb)):
            block = self.array.allocate_block(i % planes)
            first = i * ppb
            self.page_table_np[first : first + ppb] = self.array.bulk_fill_block(block, lpns)
        for lpn in range(full_blocks * ppb, count):
            self.write_page(lpn, 0.0)

    # ---- shared helpers -----------------------------------------------------

    def check_lpn(self, lpn: int) -> None:
        # The page table holds one entry per logical page; its length is
        # ``geometry.num_lpns`` without the four-property walk.
        if not 0 <= lpn < len(self.page_table):
            raise ValueError(f"lpn {lpn} outside logical space [0, {len(self.page_table)})")

    def current_ppn(self, lpn: int) -> int:
        """Physical location of an LPN, or -1 if never written."""
        return self.page_table[lpn]

    def is_mapped(self, lpn: int) -> bool:
        return self.page_table[lpn] != -1

    def mapped_lpns(self) -> np.ndarray:
        return np.flatnonzero(self.page_table_np != -1)

    # ---- power-loss recovery ----------------------------------------------------

    def rebuild_mapping(self) -> int:
        """Reconstruct the logical-to-physical map from flash state.

        After power loss the SRAM structures are gone; a real controller
        scans the pages' out-of-band areas (which store each page's
        owner) to rebuild its tables.  The array models exactly that
        metadata, so recovery is: for every VALID data page, map its
        owner to it.  Returns the number of recovered mappings.

        Subclasses with additional persistent structures (GTD, block
        tables) extend :meth:`_rebuild_extra_state`.
        """
        self.page_table_np.fill(-1)
        array = self.array
        valid_ppns = np.flatnonzero(array.page_state_np == PageState.VALID)
        owners = array.page_owner_np[valid_ppns]
        # Mid-operation crash artifacts.  A crash at an event boundary
        # (the only kind a plain power cut produces — all FTL work is
        # synchronous within one dispatch) leaves neither of these, so
        # both scrubs are no-ops outside torture campaigns:
        #  * a journal page caught between its program and the
        #    immediate invalidate stays VALID with OWNER_NONE — drop it
        #    (a real controller discards records whose CRC is torn);
        #  * an update caught between program-new and invalidate-old
        #    leaves two VALID copies of one owner — keep exactly one.
        none_mask = owners == OWNER_NONE
        if none_mask.any():
            for ppn in valid_ppns[none_mask]:
                array.invalidate(int(ppn))
            keep = ~none_mask
            valid_ppns = valid_ppns[keep]
            owners = owners[keep]
        if len(owners) != len(np.unique(owners)):
            valid_ppns, owners = self._resolve_duplicate_owners(valid_ppns, owners)
        data_mask = owners >= 0
        self.page_table_np[owners[data_mask]] = valid_ppns[data_mask]
        self._rebuild_extra_state(valid_ppns[~data_mask], owners[~data_mask])
        return int(np.count_nonzero(data_mask))

    def _resolve_duplicate_owners(self, valid_ppns: np.ndarray, owners: np.ndarray):
        """Keep exactly one VALID page per owner, invalidating the rest.

        The winner is the lexicographic max of ``(generation, ppn)``:
        content generations come from the modeled OOB when armed
        (torture campaigns), else every page ties at 0 and the highest
        PPN wins — the same page the scatter's last-writer-wins order
        would have kept.
        """
        array = self.array
        if array.page_gen_np is not None:
            gens = array.page_gen_np[valid_ppns]
        else:
            gens = np.zeros(len(valid_ppns), dtype=np.int64)
        order = np.lexsort((valid_ppns, gens))
        keep = np.ones(len(valid_ppns), dtype=bool)
        best: dict = {}
        for idx in order:
            owner = int(owners[idx])
            prev = best.get(owner)
            if prev is not None:
                keep[prev] = False
            best[owner] = idx
        for idx in np.flatnonzero(~keep):
            array.invalidate(int(valid_ppns[idx]))
        return valid_ppns[keep], owners[keep]

    def _rebuild_extra_state(self, translation_ppns: np.ndarray, translation_owners: np.ndarray) -> None:
        """Hook: restore structures beyond the page table (default none)."""

    def recover(self) -> int:
        """Full power-loss recovery: drop volatile state, rebuild the
        mapping from on-flash metadata, then restore derived structures.

        This is what :meth:`SimulatedSSD.crash` runs after halting the
        simulation; ``rebuild_mapping`` alone models only the scan.
        Returns the number of recovered data mappings.
        """
        self.on_power_loss()
        recovered = self.rebuild_mapping()
        self._reclaim_stranded_blocks()
        self._post_recovery()
        return recovered

    def _reclaim_stranded_blocks(self) -> None:
        """Return in-use blocks with no content and no history to the pool.

        A crash between an erase and its ``release_block`` (GC, journal
        ring advance) strands a fully erased block outside every free
        pool; nothing would ever reclaim it.  At event-boundary crashes
        no such block exists and this is a no-op.
        """
        array = self.array
        stranded = np.flatnonzero(
            ~array.block_free_mask
            & ~array.bad_block_mask
            & (array.block_valid_np == 0)
            & (array.block_invalid_np == 0)
            & (array.block_write_ptr_np == 0)
        )
        for block in stranded:
            array.release_block(int(block))

    def on_power_loss(self) -> None:
        """Discard state a real controller loses at power-off.

        Allocator cursors (the open blocks stay partially written on
        flash — their free tail is stranded until GC reclaims them), GC
        scheduling state, and any not-yet-persisted fault bookkeeping
        (pending retirements revert to normal blocks: the failure marks
        lived in controller RAM).
        """
        self._gc_planes.clear()
        self._gc_pending.clear()
        for allocator in self._all_allocators():
            allocator.current_block = None
        if self.faults is not None:
            self.faults.pending_retirements.clear()
            self.faults._block_fail_counts.clear()
        self.array.force_retire.clear()

    def _post_recovery(self) -> None:
        """Hook: rebuild volatile structures ``rebuild_mapping`` does not
        cover (e.g. FAST's log-block roles)."""

    # ---- integrity ------------------------------------------------------------

    def verify_integrity(self) -> None:
        """Full-scan consistency check (tests / debug runs).

        Invariants: every mapped LPN points at a VALID page owned by
        that LPN; every VALID data page is pointed at by exactly its
        owner; block counters match page states.
        """
        self.array.check_consistency()
        stores = mapping_stores(self)
        for kind, bad in coherence_findings(stores):
            raise AssertionError(_integrity_text(stores, kind, bad))
