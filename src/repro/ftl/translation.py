"""Demand-paged mapping traffic shared by DLOOP and DFTL.

Implements the CMT-miss / dirty-eviction protocol of the paper's
algorithm (Fig. 6, lines 4-14):

* miss with a full CMT -> evict the segmented-LRU victim; if it was
  updated since load, read-modify-write its translation page;
* miss on a materialised translation page -> read that page;
* GC that relocates data pages must fix their mapping entries: cached
  entries flip dirty for free, the rest are batched into one
  read-modify-write per affected translation page (DFTL's batching).

Placement of translation pages is a policy callable: DLOOP stripes
them (``tvpn % num_planes``, Section II.B), DFTL pins them to plane 0
(the contention the paper observes in Section V.D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Optional, Protocol, Tuple

from repro.flash.address import OWNER_NONE, decode_translation_owner
from repro.flash.array import PAGE_FREE, PAGE_INVALID, PAGE_VALID, FlashArray, FlashStateError
from repro.flash.geometry import SSDGeometry
from repro.flash.timekeeper import FlashTimekeeper
from repro.flash.timing import TimingParams
from repro.ftl.base import Ftl, OutOfSpaceError
from repro.ftl.cmt import CachedMappingTable
from repro.ftl.gtd import GlobalTranslationDirectory
from repro.obs.tracebus import BUS


class _Allocator(Protocol):
    current_block: Optional[int]

    @property
    def plane(self) -> Optional[int]: ...

    def _ensure_block(self) -> int: ...

    def allocate(self, owner: int) -> int: ...


@dataclass
class TranslationStats:
    tpage_reads: int = 0
    tpage_writes: int = 0
    gc_batched_updates: int = 0
    offpolicy_tpage_writes: int = 0


class TranslationManager:
    """Charges flash costs for mapping lookups and write-backs.

    ``charge_lookup``/``charge_update`` run once or twice per host page
    and ``write_back`` nearly as often under write-heavy load, so their
    bodies are straight-line code over the CMT's two segments and the
    GTD's flat directory.  Flash state and timing changes still go
    through ``FlashArray``/``FlashTimekeeper``, which own their checks
    and events.
    """

    #: How GC charges mapping updates for relocated data pages:
    #: - "batched": one read-modify-write per affected translation page
    #:   (DFTL's batch update — the default; grouping moved pages by
    #:   translation page bounds the cost at one RMW per tvpn);
    #: - "cached": moved entries are folded into the CMT as dirty and
    #:   written back lazily on eviction.  Available for study: it
    #:   pollutes the CMT and can spiral under GC-heavy load;
    #: - "free": only cached entries flip dirty; stale translation pages
    #:   are assumed patched opportunistically at no modelled cost
    #:   (optimistic bound, closest to the paper's reported magnitudes).
    GC_MODES = ("batched", "cached", "free")

    def __init__(
        self,
        array: FlashArray,
        clock: FlashTimekeeper,
        cmt: CachedMappingTable,
        gtd: GlobalTranslationDirectory,
        plane_of_tvpn: Callable[[int], int],
        allocator_of_plane: Callable[[int], _Allocator],
        gc_hook: Callable[[int, float], float],
        gc_mode: str = "batched",
        fallback_allocator: Callable[[], _Allocator] | None = None,
        gc_planes: Collection[int] = (),
    ):
        if gc_mode not in self.GC_MODES:
            raise ValueError(f"gc_mode must be one of {self.GC_MODES}")
        self.array = array
        self.clock = clock
        self.cmt = cmt
        self.gtd = gtd
        self.plane_of_tvpn = plane_of_tvpn
        self.allocator_of_plane = allocator_of_plane
        self.gc_hook = gc_hook
        self.gc_mode = gc_mode
        self.fallback_allocator = fallback_allocator
        #: Live view of the planes with a collection in progress (the
        #: owning FTL's set).  ``gc_hook`` returns at once unless one is
        #: running or some plane is low, so ``write_back`` skips the call.
        self.gc_planes = gc_planes
        self.stats = TranslationStats()
        #: FaultInjector when fault injection is active (set by the
        #: owning FTL's ``attach_faults``), else None.
        self.faults = None
        self._entries_per_tpage = gtd.entries_per_tpage
        self._pages_per_plane = array.geometry.pages_per_plane
        self._pages_per_block = array.geometry.pages_per_block

    # ---- core protocol -----------------------------------------------------

    def charge_lookup(self, lpn: int, now: float) -> float:
        """Bring ``lpn``'s mapping into the CMT; returns time afterwards."""
        cmt = self.cmt
        protected = cmt.protected
        probation = cmt.probation
        if lpn in protected:
            protected.move_to_end(lpn)
        elif lpn in probation:
            protected[lpn] = probation.pop(lpn)
            cap = cmt.protected_capacity
            while len(protected) > cap:
                demoted, dirty = protected.popitem(last=False)
                probation[demoted] = dirty  # re-enter at probationary MRU
        else:
            cmt.stats.misses += 1
            if BUS.enabled:
                BUS.emit("cmt", "miss", now, 0.0, {"lpn": lpn}, None, "i")
            t = now
            capacity = cmt.capacity
            # _make_room, less the call (one miss per host page under load)
            while len(probation) + len(protected) >= capacity:
                victim, dirty = (probation or protected).popitem(last=False)
                cmt.stats.evictions += 1
                if dirty:
                    cmt.stats.dirty_evictions += 1
                    if BUS.enabled:
                        BUS.emit("cmt", "dirty_evict", t, 0.0, {"lpn": victim}, None, "i")
                    t = self.write_back(victim // self._entries_per_tpage, t)
            ppn = self.gtd.tpage_ppn[lpn // self._entries_per_tpage]
            if ppn != -1:
                t = self.clock.read_page(ppn // self._pages_per_plane, t)
                self.stats.tpage_reads += 1
            probation[lpn] = False
            return t
        cmt.stats.hits += 1
        if BUS.enabled:
            BUS.emit("cmt", "hit", now, 0.0, {"lpn": lpn}, None, "i")
        return now

    def charge_update(self, lpn: int, now: float) -> float:
        """Mark ``lpn``'s mapping updated (entry must end up cached dirty)."""
        cmt = self.cmt
        protected = cmt.protected
        probation = cmt.probation
        if lpn in protected:
            protected.move_to_end(lpn)
            protected[lpn] = True
        elif lpn in probation:
            del probation[lpn]
            protected[lpn] = True
            cap = cmt.protected_capacity
            while len(protected) > cap:
                # (with no protected segment the entry itself comes back)
                demoted, dirty = protected.popitem(last=False)
                probation[demoted] = dirty
        else:
            cmt.stats.misses += 1
            t = self._make_room(now)
            probation[lpn] = True
            return t
        cmt.stats.hits += 1
        return now

    def _make_room(self, now: float) -> float:
        """Evict segmented-LRU victims until the CMT has a free slot,
        writing back the translation page of each dirty one."""
        cmt = self.cmt
        protected = cmt.protected
        probation = cmt.probation
        t = now
        while len(probation) + len(protected) >= cmt.capacity:
            lpn, dirty = (probation or protected).popitem(last=False)
            cmt.stats.evictions += 1
            if dirty:
                cmt.stats.dirty_evictions += 1
                if BUS.enabled:
                    BUS.emit("cmt", "dirty_evict", t, 0.0, {"lpn": lpn}, None, "i")
                t = self.write_back(lpn // self._entries_per_tpage, t)
        return t

    def write_back(self, tvpn: int, now: float) -> float:
        """Read-modify-write one translation page to flash."""
        # Reclaim space on the target plane *before* taking a page from
        # it (it may be another plane than the one being collected).
        plane = self.plane_of_tvpn(tvpn)
        array = self.array
        t = now
        if self.gc_planes or array.gc_low_plane_count:
            t = self.gc_hook(plane, t)
        tpage_ppn = self.gtd.tpage_ppn
        ppb = self._pages_per_block
        old_ppn = tpage_ppn[tvpn]
        if old_ppn != -1:
            t = self.clock.read_page(old_ppn // self._pages_per_plane, t)
            self.stats.tpage_reads += 1
            # FlashArray.invalidate(old_ppn), less the call
            if array.page_state[old_ppn] != PAGE_VALID:
                raise FlashStateError(f"invalidate of non-valid page {old_ppn}")
            old_block = old_ppn // ppb
            array.page_state[old_ppn] = PAGE_INVALID
            array.page_owner[old_ppn] = OWNER_NONE
            array.block_valid[old_block] -= 1
            array.block_invalid[old_block] += 1
            if BUS.enabled:
                BUS.emit("array", "invalidate", 0.0, 0.0, {"ppn": old_ppn}, None, "i")
        allocator = self.allocator_of_plane(plane)
        owner = -tvpn - 2  # encode_translation_owner
        faults = self.faults
        try:
            if faults is None:
                # allocator.allocate(owner) and FlashArray.program, less the
                # calls: the array's checks, generation stamp and event are
                # kept (its ascending-order check cannot fail here — this
                # is the block's next page).
                block = allocator.current_block
                if block is None or array.block_write_ptr[block] == ppb:
                    block = allocator._ensure_block()
                offset = array.block_write_ptr[block]
                new_ppn = block * ppb + offset
                if array.page_state[new_ppn] != PAGE_FREE:
                    raise FlashStateError(f"program of non-free page {new_ppn}")
                if array._block_is_free[block]:
                    raise FlashStateError(f"program into unallocated block {block}")
                array.block_write_ptr[block] = offset + 1
                array.page_state[new_ppn] = PAGE_VALID
                array.page_owner[new_ppn] = owner
                array.block_valid[block] += 1
                array.write_stamp = stamp = array.write_stamp + 1
                array.block_write_stamp[block] = stamp
                if array.page_gen is not None:
                    gen = array.stamp_gen(new_ppn, owner)
                    if BUS.enabled:
                        BUS.emit("array", "program", 0.0, 0.0,
                                 {"ppn": new_ppn, "owner": owner, "gen": gen}, None, "i")
                elif BUS.enabled:
                    BUS.emit("array", "program", 0.0, 0.0,
                             {"ppn": new_ppn, "owner": owner}, None, "i")
            else:
                new_ppn, t = faults.program(allocator, owner, t)
        except FlashStateError:
            # Policy plane exhausted mid-collection: place the page on
            # any plane with space.  The GTD (SRAM) points anywhere, so
            # this trades placement policy for guaranteed progress.
            if self.fallback_allocator is None:
                raise
            try:
                if faults is None:
                    new_ppn = self.fallback_allocator().allocate(owner)
                else:
                    new_ppn, t = faults.program(self.fallback_allocator(), owner, t)
            except FlashStateError as exc:
                # Even the fallback has nothing left: genuine end of
                # life — surface it as the per-request error the
                # controller knows how to fail gracefully.
                raise OutOfSpaceError(
                    "no plane can absorb a translation page — device full"
                ) from exc
            self.stats.offpolicy_tpage_writes += 1
        actual_plane = new_ppn // self._pages_per_plane
        if faults is None:
            t = self.clock.program_page(actual_plane, t)
        self.stats.tpage_writes += 1
        tpage_ppn[tvpn] = new_ppn
        if self.gc_planes or array.gc_low_plane_count:
            t = self.gc_hook(actual_plane, t)
        return t

    # ---- GC support -------------------------------------------------------------

    def gc_update_mappings(self, moved: Iterable[Tuple[int, int]], now: float) -> float:
        """Fix mapping entries for data pages GC just relocated.

        ``moved`` is ``(lpn, new_ppn)`` pairs; see :data:`GC_MODES` for
        the cost model applied.
        """
        t = now
        if self.gc_mode == "cached":
            for lpn, _new_ppn in moved:
                t = self.charge_update(lpn, t)
            return t
        if self.gc_mode == "free":
            for lpn, _new_ppn in moved:
                if lpn in self.cmt:
                    self.cmt.mark_dirty(lpn)
            return t
        pending_tvpns: set[int] = set()
        for lpn, _new_ppn in moved:
            if lpn in self.cmt:
                self.cmt.mark_dirty(lpn)
            else:
                pending_tvpns.add(self.gtd.tvpn_of(lpn))
        for tvpn in sorted(pending_tvpns):
            t = self.write_back(tvpn, t)
            self.stats.gc_batched_updates += 1
        return t


class DemandPagedFtl(Ftl):
    """Page-mapping FTL whose map lives in flash translation pages.

    What DLOOP and DFTL share: the CMT / GTD / :class:`TranslationManager`
    trio, the host page protocol (``read_page``, ``write_page``,
    ``trim_page``), and the hooks that keep translation pages coherent
    across trims, page loss, GC moves and power loss.  Subclasses supply
    the placement policies ``_host_write_point``, ``plane_of_tvpn``,
    ``_translation_allocator`` and ``_fallback_allocator``.

    ``read_page`` and ``write_page`` are what every run executes —
    benchmarked, traced, sanitized, faulted or subclassed alike.  They
    are straight-line code: each costs a handful of calls (into the
    translation manager, the placement hook, the write point and the
    timekeeper), because a Python call per primitive is what dominates
    host time per simulated page.
    """

    fault_injection_supported = True

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingParams | None = None,
        *,
        cmt_entries: int = 4096,
        translation_gc_mode: str = "batched",
        **kwargs,
    ):
        super().__init__(geometry, timing, **kwargs)
        self.cmt = CachedMappingTable(cmt_entries)
        self.gtd = GlobalTranslationDirectory(geometry.num_lpns, geometry.page_size)
        self.tm = TranslationManager(
            array=self.array,
            clock=self.clock,
            cmt=self.cmt,
            gtd=self.gtd,
            plane_of_tvpn=self.plane_of_tvpn,
            allocator_of_plane=self._translation_allocator,
            gc_hook=self._maybe_gc,
            gc_mode=translation_gc_mode,
            fallback_allocator=self._fallback_allocator,
            gc_planes=self._gc_planes,
        )
        self._num_lpns = geometry.num_lpns
        self._pages_per_plane = geometry.pages_per_plane
        self._pages_per_block = geometry.pages_per_block

    # ---- placement policies (subclass responsibility) ------------------------

    def _host_write_point(self, lpn: int) -> Tuple[int, _Allocator]:
        """``(plane, allocator)``: the write point a host write of ``lpn``
        is placed through and the plane it is on now (the plane the
        pre-write GC is triggered for).  Raises :class:`OutOfSpaceError`
        when no write point can be opened."""
        raise NotImplementedError

    def plane_of_tvpn(self, tvpn: int) -> int:
        """Plane that stores translation page ``tvpn``."""
        raise NotImplementedError

    def _translation_allocator(self, plane: int):
        """Write point for translation pages on ``plane``."""
        raise NotImplementedError

    def _fallback_allocator(self):
        """Write point for a translation page its policy plane cannot hold."""
        raise NotImplementedError

    # ---- host interface -------------------------------------------------------

    def read_page(self, lpn: int, start: float) -> float:
        if not 0 <= lpn < self._num_lpns:
            self.check_lpn(lpn)  # raises
        self.stats.host_reads += 1
        t = self.tm.charge_lookup(lpn, start)
        ppn = self.page_table[lpn]
        if ppn == -1:
            # Never-written page: nothing on flash to read.
            self.stats.unmapped_reads += 1
            return t
        if self.faults is None:
            t = self.clock.read_page(ppn // self._pages_per_plane, t)
        else:
            t = self._fault_read_data(lpn, ppn, t)
        if self.debug_checks:
            self.verify_integrity()
        return t

    def write_page(self, lpn: int, start: float) -> float:
        if not 0 <= lpn < self._num_lpns:
            self.check_lpn(lpn)  # raises
        self.stats.host_writes += 1
        t = self.tm.charge_lookup(lpn, start)
        plane, allocator = self._host_write_point(lpn)
        array = self.array
        # Reclaim space *before* taking a page so the pool never empties
        # under the incoming write.  (_maybe_gc does nothing unless a
        # pass is running or some plane is low; skip the call then.)
        if self._gc_planes or array.gc_low_plane_count:
            try:
                t = self._maybe_gc(plane, t)
            except FlashStateError as exc:
                # GC itself ran out of destination space: the write point
                # cannot absorb this write.  Partial collections are
                # consistent (moved pages are already remapped), so fail
                # per-request.  (A roaming write point reclaims into the
                # pool it places from: one failure, one text.)
                raise OutOfSpaceError(
                    f"cannot place write for lpn {lpn} — device full" if allocator.plane is None
                    else f"plane {plane}: cannot reclaim space for lpn {lpn} — device full"
                ) from exc
        old_ppn = self.page_table[lpn]
        ppb = self._pages_per_block
        faults = self.faults
        try:
            if faults is None:
                # allocator.allocate(lpn) and FlashArray.program, less the
                # calls: the array's checks, generation stamp and event are
                # kept (its ascending-order check cannot fail here — this
                # is the block's next page).
                block = allocator.current_block
                if block is None or array.block_write_ptr[block] == ppb:
                    block = allocator._ensure_block()
                offset = array.block_write_ptr[block]
                new_ppn = block * ppb + offset
                if array.page_state[new_ppn] != PAGE_FREE:
                    raise FlashStateError(f"program of non-free page {new_ppn}")
                if array._block_is_free[block]:
                    raise FlashStateError(f"program into unallocated block {block}")
                array.block_write_ptr[block] = offset + 1
                array.page_state[new_ppn] = PAGE_VALID
                array.page_owner[new_ppn] = lpn
                array.block_valid[block] += 1
                array.write_stamp = stamp = array.write_stamp + 1
                array.block_write_stamp[block] = stamp
                if array.page_gen is not None:
                    gen = array.stamp_gen(new_ppn, lpn)
                    if BUS.enabled:
                        BUS.emit("array", "program", 0.0, 0.0,
                                 {"ppn": new_ppn, "owner": lpn, "gen": gen}, None, "i")
                elif BUS.enabled:
                    BUS.emit("array", "program", 0.0, 0.0,
                             {"ppn": new_ppn, "owner": lpn}, None, "i")
            else:
                # Fault-aware path: a failed program burns the page and
                # retries through the same write point (on the same plane
                # when the allocator is plane-bound).
                new_ppn, t = faults.program(allocator, lpn, t)
        except FlashStateError as exc:
            where = "" if allocator.plane is None else f"plane {plane}: "
            raise OutOfSpaceError(
                f"{where}cannot place write for lpn {lpn} — device full"
            ) from exc
        # The plane the page landed on, not the hook's: a roaming write
        # point's pre-write pass relocates through the same allocator and
        # can move the active block to another plane.
        plane = new_ppn // self._pages_per_plane
        if faults is None:
            t = self.clock.program_page(plane, t)
        if old_ppn != -1:
            # FlashArray.invalidate(old_ppn), less the call
            if array.page_state[old_ppn] != PAGE_VALID:
                raise FlashStateError(f"invalidate of non-valid page {old_ppn}")
            old_block = old_ppn // ppb
            array.page_state[old_ppn] = PAGE_INVALID
            array.page_owner[old_ppn] = OWNER_NONE
            array.block_valid[old_block] -= 1
            array.block_invalid[old_block] += 1
            if BUS.enabled:
                BUS.emit("array", "invalidate", 0.0, 0.0, {"ppn": old_ppn}, None, "i")
        self.page_table[lpn] = new_ppn
        t = self.tm.charge_update(lpn, t)
        if self._gc_planes or array.gc_low_plane_count:
            t = self._maybe_gc(plane, t)
        if self.debug_checks:
            self.verify_integrity()
        return t

    def trim_page(self, lpn: int, start: float) -> float:
        before = self.stats.host_trims
        t = super().trim_page(lpn, start)
        if self.stats.host_trims > before:
            # the cleared mapping must eventually persist to its
            # translation page, like any other mapping update
            t = self.tm.charge_update(lpn, t)
        return t

    # ---- fault injection --------------------------------------------------------

    def attach_faults(self, injector) -> None:
        super().attach_faults(injector)
        self.tm.faults = injector

    def _note_page_loss(self, lpn: int, now: float) -> float:
        # The cleared mapping must persist to its translation page,
        # exactly like a TRIM.
        return self.tm.charge_update(lpn, now)

    # ---- GC relocation hooks ------------------------------------------------------

    def _gc_note_move(self, owner: int, new_ppn: int, moved_data: list) -> None:
        if owner <= -2:  # is_translation_owner
            # Relocating a translation page only touches the SRAM GTD.
            self.gtd.update(decode_translation_owner(owner), new_ppn)
        else:
            self.page_table[owner] = new_ppn
            moved_data.append((owner, new_ppn))

    def _gc_mapping_updates(self, moved_data: list, now: float) -> float:
        if not moved_data:
            return now
        before = self.tm.stats.gc_batched_updates
        t = self.tm.gc_update_mappings(moved_data, now)
        self.gc_stats.translation_updates += self.tm.stats.gc_batched_updates - before
        return t

    # ---- preconditioning ----------------------------------------------------------

    def _bulk_fill_translation(self, count: int) -> None:
        """Materialise the translation pages covering LPNs ``0..count-1``
        so demand paging starts from a realistic aged state."""
        if count > 0:
            for tvpn in range(self.gtd.tvpn_of(count - 1) + 1):
                self.tm.write_back(tvpn, 0.0)

    # ---- integrity ------------------------------------------------------------------

    def _rebuild_extra_state(self, translation_ppns, translation_owners) -> None:
        """Recover the GTD from on-flash translation pages and drop the
        (volatile) CMT — the demand-paged state a power cycle loses."""
        # Forget first: a crash between write_back's invalidate-old and
        # program-new leaves a tvpn with no valid page; a surviving SRAM
        # entry would point at the invalidated page.
        self.gtd.clear()
        for ppn, owner in zip(translation_ppns, translation_owners):
            self.gtd.update(decode_translation_owner(int(owner)), int(ppn))
        self.cmt = CachedMappingTable(self.cmt.capacity)
        self.tm.cmt = self.cmt
