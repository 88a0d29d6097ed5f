"""SimSanitizer: runtime invariant checks over the TraceBus event stream.

The static linter (:mod:`repro.lint.rules`) forbids nondeterminism at
the source level; this module validates the *dynamic* FTL invariants the
paper's claims rest on, as the simulation runs.  The sanitizer
subscribes to the PR-1 :data:`~repro.obs.tracebus.BUS` and checks:

* **copyback-plane / copyback-parity** — every copy-back GC migration
  stays on one plane and honours the DLOOP same-parity rule
  (Section III.A) — the headline invariant of the paper;
* **program-order / program-free-block / reprogram** — a shadow NAND
  model (rebuilt independently from ``array``-category events) enforces
  ascending in-block program order, no programs into pooled blocks and
  no program of a page that was not erased since its last program;
* **erase-valid / double-erase / release-unerased / alloc-in-use** —
  block lifecycle legality against the same shadow model;
* **mapping-coherence** — after every GC pass (and at
  :meth:`finalize`), every mapped LPN points at a VALID page whose
  owner is that LPN, every VALID data page is reachable, and (when the
  FTL has a GTD) every materialised translation page round-trips.  The
  first sweep and :meth:`finalize` recheck the whole device; the sweeps
  in between diff the mapping stores against snapshots of the last
  clean sweep and recheck only the instances reading a changed cell
  (the check body is :func:`repro.ftl.coherence.coherence_findings`,
  shared with ``Ftl.verify_integrity``), so a sweep costs a few linear
  compares plus work proportional to what changed since the last one;
* **shadow-divergence** — the shadow NAND model must equal the array
  it shadows: page states at the cells that changed on every sweep and
  in full at the first sweep and :meth:`finalize`, write pointers and
  free-pool flags in full every sweep.  Holds while the sanitizer has
  seen every ``array`` event since construction; :meth:`detach` ends
  that, and the rule with it;
* **free-accounting** — per-plane free-pool sizes match the array's
  free-block mask, and no active write block sits in a pool;
* **event-order** — engine dispatch timestamps never run backwards and
  same-timestamp events fire in strictly increasing scheduling order;
* **plane-occupancy / channel-occupancy** — busy intervals rebuilt from
  the timekeeper's ``flash`` spans never overlap on one plane or one
  channel (the Section III timing-legality invariant: two operations
  cannot occupy the same resource simultaneously).  Back-to-back spans
  sharing an endpoint are legal; a ``flash/timeline_reset`` (emitted
  after preconditioning) drops accumulated history.

Events arrive as their fields through :meth:`SimSanitizer.trace_emit`,
which the TraceBus calls directly — it *is* ``BUS.emit`` while the
sanitizer is the only subscriber — and ``sanitizer(event)`` unpacks
into.  It is one comparison chain that checks the frequent kinds inline
and hands the rare ones to a method each.  The per-event rules run on
flat Python buffers, the sweeps on numpy views of the same memory.

Violations raise :class:`SanitizerError` immediately (fail fast) with
the rule name and a diagnostic snapshot of the relevant state.  The
sanitizer is a pure observer: a sanitized run is bit-identical to an
unsanitized one (enforced by ``tests/test_sanitizer.py``).

Usage::

    ssd = SimulatedSSD(geometry, ftl="dloop", sanitize=True)
    ssd.run(requests)
    report = ssd.sanitizer.finalize()   # full sweep + stats

or from the CLI: ``repro-sim simulate --sanitize ...``.
"""

from __future__ import annotations

from array import array as scalar_array
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.flash.address import PageState
from repro.ftl.coherence import (
    FORWARD_OWNER,
    FORWARD_STATE,
    REVERSE,
    coherence_findings,
    mapping_stores,
    translation_tvpn,
)
from repro.obs import schema
from repro.obs.tracebus import BUS, TraceBus, TraceEvent

#: ``flash`` events whose span occupies a plane for its full duration.
_PLANE_SPAN_EVENTS = frozenset(
    {
        schema.EV_FLASH_READ,
        schema.EV_FLASH_PROGRAM,
        schema.EV_FLASH_ERASE,
        schema.EV_FLASH_COPY_BACK,
    }
)
#: ``flash`` events whose span occupies a channel (the transfer path).
_CHANNEL_SPAN_EVENTS = frozenset(
    {
        schema.EV_XFER_IN,
        schema.EV_XFER_OUT,
    }
)

#: Shadow page states (mirrors :class:`repro.flash.address.PageState`).
_FREE, _VALID, _INVALID = (
    int(PageState.FREE),
    int(PageState.VALID),
    int(PageState.INVALID),
)


def _distinct_cells(parts: List[np.ndarray]) -> np.ndarray:
    """The sorted distinct non-negative values of ``parts``.

    Negative values are the "no partner" sentinels (unmapped,
    OWNER_NONE, translation owners, unmaterialised tvpn).  What
    ``np.unique`` plus a compare computes, without their bookkeeping.
    """
    cells = np.concatenate(parts)
    cells.sort()
    cells = cells[np.searchsorted(cells, 0):]
    if len(cells) > 1:
        cells = cells[np.concatenate(([True], cells[1:] != cells[:-1]))]
    return cells


class SanitizerError(AssertionError):
    """An FTL invariant was violated; ``rule`` names which one."""

    def __init__(
        self, rule: str, message: str, snapshot: Optional[dict] = None
    ) -> None:
        self.rule = rule
        self.snapshot = snapshot or {}
        detail = f" | snapshot: {self.snapshot}" if self.snapshot else ""
        super().__init__(f"[{rule}] {message}{detail}")


class SimSanitizer:
    """Validates FTL invariants as trace events flow.

    Construct with the FTL under test, :meth:`attach` to the bus (done
    automatically when constructed via ``SimulatedSSD(sanitize=True)``),
    and :meth:`finalize` after the run for the closing sweep + report.
    """

    def __init__(self, ftl, *, bus: Optional[TraceBus] = None) -> None:
        self.ftl = ftl
        self.bus = bus if bus is not None else BUS
        geometry = ftl.geometry
        self._pages_per_block = geometry.pages_per_block
        self._blocks_per_plane = geometry.physical_blocks_per_plane
        self._pages_per_plane = self._pages_per_block * self._blocks_per_plane
        n_blocks = geometry.num_physical_blocks
        # Shadow NAND model, seeded from the array's state *now* (the
        # device may already be preconditioned) and advanced only by
        # bus events afterwards — an independent re-derivation, so a
        # bookkeeping bug in FlashArray itself is caught too.  Flat
        # Python buffers for the per-event checks' scalar touches,
        # with zero-copy numpy views (``_shadow_*``) for the sweeps —
        # FlashArray's ``page_state`` / ``page_state_np`` idiom.
        array = ftl.array
        self._page_state = bytearray(array.page_state)
        self._write_ptr = scalar_array("q", array.block_write_ptr)
        self._in_pool = bytearray(array.block_free_mask.tobytes())
        self._erased = bytearray(n_blocks)
        self._shadow_state = np.frombuffer(self._page_state, dtype=np.uint8)
        self._shadow_ptr = np.frombuffer(self._write_ptr, dtype=np.int64)
        self._shadow_free = np.frombuffer(self._in_pool, dtype=np.bool_)
        self._shadow_erased = np.frombuffer(self._erased, dtype=np.bool_)
        self._shadow_synced = True
        # Event-order tracking.
        self._last_engine_ts = -np.inf
        self._last_engine_seq = -1
        # Occupancy tracking: latest busy interval per plane / channel.
        # Spans per resource arrive start-ordered (the timekeeper
        # serializes through ``plane_free``/``channel_free``), so one
        # remembered interval per resource suffices for overlap checks.
        self._plane_busy: Dict[int, Tuple[float, float, str]] = {}
        self._channel_busy: Dict[int, Tuple[float, float, str]] = {}
        # Statistics for the report.
        self.events_checked = 0
        self.migrations_checked = 0
        self.spans_checked = 0
        self.violations = 0
        # Delta-sweep state: copies of the mapping stores as of the last
        # clean sweep (None until the first), and counters that stay out
        # of report() — its keys feed byte-compared reports — except as
        # their sum, ``sweeps``.
        self._base: Optional[List[np.ndarray]] = None
        self.full_sweeps = 0
        self.delta_sweeps = 0
        #: candidate cells (LPNs + PPNs) the delta sweeps rechecked; a
        #: full sweep rechecks ``num_lpns + num_physical_pages``.
        self.cells_rechecked = 0
        self._attached = False

    # ---- lifecycle -------------------------------------------------------

    def attach(self) -> "SimSanitizer":
        if not self._attached:
            self.bus.subscribe(self)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.bus.unsubscribe(self)
            self._attached = False
            # Array events go unseen from here on: the shadow model is
            # no longer evidence of anything (shadow-divergence is off).
            self._shadow_synced = False

    def finalize(self) -> dict:
        """Run the closing coherence sweep (always the full form, whatever
        the delta state says), detach, and report."""
        self._sweep(full=True)
        self.detach()
        return self.report()

    @property
    def sweeps(self) -> int:
        return self.full_sweeps + self.delta_sweeps

    def report(self) -> dict:
        return {
            "events_checked": self.events_checked,
            "migrations_checked": self.migrations_checked,
            "spans_checked": self.spans_checked,
            "sweeps": self.sweeps,
            "violations": self.violations,
        }

    # ---- event dispatch --------------------------------------------------

    def trace_emit(
        self,
        category: str,
        name: str,
        ts_us: float,
        duration_us: float = 0.0,
        args: Optional[dict] = None,
        track: Optional[str] = None,
        ph: str = "X",
    ) -> None:
        """Check one event, given as its fields (the TraceBus protocol).

        While the sanitizer is the bus's only subscriber this *is*
        ``BUS.emit``, so the frequent kinds — array programs and
        invalidates, flash spans, engine dispatches and every kind only
        counted — are checked inline, in that one frame; the rare ones
        have a method each.  Every event is counted first.
        """
        self.events_checked += 1
        if category == "array":
            if name == "program":
                ppn = int(args["ppn"])
                ppb = self._pages_per_block
                block = ppn // ppb
                offset = ppn - block * ppb
                if self._in_pool[block]:
                    self._fail(
                        "program-free-block",
                        f"program of ppn {ppn} into block {block} which is in the free pool",
                        {"block": block},
                    )
                if offset < self._write_ptr[block]:
                    self._fail(
                        "program-order",
                        f"out-of-order program: offset {offset} of block {block} behind "
                        f"write pointer {self._write_ptr[block]}",
                        {"block": block},
                    )
                if self._page_state[ppn] != _FREE:
                    self._fail(
                        "reprogram",
                        f"program of ppn {ppn} which was not erased since its last "
                        f"program (state {self._page_state[ppn]})",
                        {"block": block},
                    )
                self._page_state[ppn] = _VALID
                self._write_ptr[block] = offset + 1
                self._erased[block] = False
            elif name == "invalidate":
                ppn = int(args["ppn"])
                if self._page_state[ppn] != _VALID:
                    self._fail(
                        "invalidate-state",
                        f"invalidate of ppn {ppn} in state {self._page_state[ppn]} "
                        "(must be VALID)",
                        {"block": ppn // self._pages_per_block},
                    )
                self._page_state[ppn] = _INVALID
            elif name == "skip":
                self._on_skip(args)
            elif name == "erase":
                self._on_erase(args)
            elif name == "alloc_block":
                self._on_alloc_block(args)
            elif name == "release_block":
                self._on_release_block(args)
            elif name == "bulk_fill":
                self._on_bulk_fill(args)
            elif name == "mark_bad":
                self._on_mark_bad(args)
            elif name == "retire_block":
                self._on_retire_block(args)
        elif category == "flash":
            # Plane/channel occupancy: busy intervals must never overlap.
            # Strict <: spans sharing an endpoint are legal back-to-back
            # scheduling (the timekeeper starts ops at exactly the moment
            # the resource frees), so no epsilon is needed.
            if name in _PLANE_SPAN_EVENTS:
                resource, index, busy = "plane", (args or {}).get("plane"), self._plane_busy
            elif name in _CHANNEL_SPAN_EVENTS:
                resource, index, busy = "channel", (args or {}).get("channel"), self._channel_busy
            else:
                if name == schema.EV_TIMELINE_RESET:
                    self._on_timeline_reset()
                return
            if index is None:
                return
            self.spans_checked += 1
            prev = busy.get(index)
            if prev is not None and ts_us < prev[1]:
                self._fail_occupancy(resource, index, prev, name, ts_us, duration_us)
            busy[index] = (ts_us, ts_us + duration_us, name)
        elif category == "gc":
            if name == "migrate":
                self._on_migrate(ts_us, args)
            elif name == "gc_pass":
                self._on_gc_pass()
        elif category == "engine":
            # Engine dispatch order must be (time, seq)-monotonic.
            seq = (args or {}).get("seq")
            if ts_us < self._last_engine_ts:
                self._fail(
                    "event-order",
                    f"engine time ran backwards: {ts_us} after {self._last_engine_ts}",
                    {"event": name},
                )
            if seq is not None:
                # Exact equality is intended: "same timestamp" is the case
                # under test, not a tolerance comparison.
                if ts_us == self._last_engine_ts and seq <= self._last_engine_seq:  # dl: disable=DL104
                    self._fail(
                        "event-order",
                        f"same-timestamp events fired out of scheduling order at "
                        f"t={ts_us}: seq {seq} after {self._last_engine_seq}",
                        {"event": name},
                    )
                self._last_engine_seq = int(seq)
            self._last_engine_ts = ts_us

    def __call__(self, event: TraceEvent) -> None:
        self.trace_emit(*event)

    def _fail(self, rule: str, message: str, snapshot: Optional[dict] = None) -> None:
        self.violations += 1
        raise SanitizerError(rule, message, snapshot)

    # ---- the rare kinds --------------------------------------------------

    def _on_gc_pass(self) -> None:
        # Looked up per event: callers may rebind check_now on the instance.
        self.check_now()

    def _on_migrate(self, ts_us: float, args: Optional[dict]) -> None:
        """Copy-back migrations must stay on-plane with matching parity."""
        args = args or {}
        if args.get("mode") != "copyback":
            return
        self.migrations_checked += 1
        src = int(args["from_ppn"])
        dst = int(args["to_ppn"])
        src_plane = src // self._pages_per_plane
        dst_plane = dst // self._pages_per_plane
        if src_plane != dst_plane:
            self._fail(
                "copyback-plane",
                f"copy-back moved ppn {src} (plane {src_plane}) to ppn {dst} "
                f"(plane {dst_plane}); DLOOP GC must stay intra-plane",
                {"event": args, "ts_us": ts_us},
            )
        if (src % self._pages_per_block) & 1 != (dst % self._pages_per_block) & 1:
            self._fail(
                "copyback-parity",
                f"copy-back parity mismatch: ppn {src} (offset "
                f"{src % self._pages_per_block}) -> ppn {dst} (offset "
                f"{dst % self._pages_per_block}); source and destination page "
                "offsets must share parity (Fig. 5)",
                {"event": args, "ts_us": ts_us},
            )

    def _fail_occupancy(
        self, resource: str, index: int, prev: Tuple[float, float, str],
        name: str, start: float, duration_us: float,
    ) -> None:
        index = int(index)
        self._fail(
            f"{resource}-occupancy",
            f"{name} on {resource} {index} starts at {start} us, "
            f"inside the busy interval [{prev[0]}, {prev[1]}) us of "
            f"{prev[2]}; two operations cannot occupy one {resource} "
            "simultaneously",
            {
                resource: index,
                "busy": [prev[0], prev[1], prev[2]],
                "span": [start, start + duration_us, name],
            },
        )

    def _on_timeline_reset(self) -> None:
        # Timelines were zeroed (post-preconditioning); pre-reset busy
        # history must not count against future spans.
        self._plane_busy.clear()
        self._channel_busy.clear()

    # The ``array`` methods advance the shadow NAND model and police
    # block lifecycles, on the scalar buffers (as the inline program and
    # invalidate checks do).

    def _on_skip(self, args: dict) -> None:
        ppn = int(args["ppn"])
        block, offset = divmod(ppn, self._pages_per_block)
        if self._page_state[ppn] != _FREE or offset < self._write_ptr[block]:
            self._fail(
                "program-order",
                f"skip of non-free or behind-pointer ppn {ppn} in block {block}",
                {"block": block},
            )
        self._page_state[ppn] = _INVALID
        self._write_ptr[block] = offset + 1
        self._erased[block] = False

    def _on_erase(self, args: dict) -> None:
        block = int(args["block"])
        if self._in_pool[block]:
            self._fail(
                "double-erase",
                f"erase of block {block} which sits in the free pool",
                {"block": block},
            )
        if self._erased[block]:
            self._fail(
                "double-erase",
                f"block {block} erased twice with no intervening program",
                {"block": block},
            )
        first = block * self._pages_per_block
        n_valid = self._page_state.count(_VALID, first, first + self._pages_per_block)
        if n_valid:
            self._fail(
                "erase-valid",
                f"erase of block {block} still holding {n_valid} valid pages",
                {"block": block, "valid": n_valid},
            )
        self._shadow_state[first : first + self._pages_per_block] = _FREE
        self._write_ptr[block] = 0
        self._erased[block] = True

    def _on_bulk_fill(self, args: dict) -> None:
        """Vectorised preconditioning fill (equivalent to ``count`` programs)."""
        block = int(args["block"])
        count = int(args["count"])
        if self._in_pool[block]:
            self._fail(
                "program-free-block",
                f"bulk fill into block {block} which is in the free pool",
                {"block": block},
            )
        if self._write_ptr[block] != 0:
            self._fail(
                "program-order",
                f"bulk fill into partially written block {block} (write pointer "
                f"at {self._write_ptr[block]})",
                {"block": block},
            )
        first = block * self._pages_per_block
        self._shadow_state[first : first + count] = _VALID
        self._write_ptr[block] = count
        self._erased[block] = False

    def _on_alloc_block(self, args: dict) -> None:
        block = int(args["block"])
        if not self._in_pool[block]:
            self._fail(
                "alloc-in-use",
                f"allocation of block {block} which is not in the free pool",
                {"block": block},
            )
        self._in_pool[block] = False

    def _on_mark_bad(self, args: dict) -> None:
        self._in_pool[int(args["block"])] = False

    def _on_retire_block(self, args: dict) -> None:
        """Runtime retirement: an in-use block leaves circulation with
        its pages un-erased; all live data must have been relocated."""
        block = int(args["block"])
        if self._in_pool[block]:
            self._fail(
                "retire-free-block",
                f"runtime retirement of block {block} which sits in the free pool",
                {"block": block},
            )
        first = block * self._pages_per_block
        n_valid = self._page_state.count(_VALID, first, first + self._pages_per_block)
        if n_valid:
            self._fail(
                "retire-valid",
                f"runtime retirement of block {block} still holding {n_valid} "
                "valid pages (relocation must happen first)",
                {"block": block, "valid": n_valid},
            )
        # The block stays out of the free pool forever; nothing else to do.

    def _on_release_block(self, args: dict) -> None:
        block = int(args["block"])
        if self._write_ptr[block] != 0:
            self._fail(
                "release-unerased",
                f"release of block {block} with write pointer at "
                f"{self._write_ptr[block]} (must be erased first)",
                {"block": block},
            )
        if not args.get("retired", False):
            self._in_pool[block] = True

    # ---- coherence sweeps ------------------------------------------------

    def check_now(self) -> None:
        """Mapping + accounting sweep against live FTL state.

        Runs after every GC pass, when a run drains and after crash
        recovery.  The first sweep rechecks every cell and snapshots the
        mapping stores; each later one diffs the live stores against the
        snapshots of the last clean sweep (linear compares, so a
        mutation that emitted no event is still seen) and rechecks only
        the invariant instances that read a changed cell — cost
        proportional to what changed since the last sweep, plus the
        compares.  :meth:`finalize` always runs the full form.
        """
        self._sweep(full=self._base is None)

    def _sweep(self, *, full: bool) -> None:
        stores = mapping_stores(self.ftl)
        if full:
            self.full_sweeps += 1
            lpns = ppns = None
        else:
            self.delta_sweeps += 1
            changed = [(store != base).nonzero()[0] for store, base in zip(stores, self._base)]
            lpns, ppns = self._closure(stores, changed)
            self.cells_rechecked += len(lpns) + len(ppns)
        self._check_mapping_coherence(stores, lpns, ppns)
        self._check_free_accounting()
        self._check_shadow(stores[1], ppns)
        # Clean: this state is the base the next delta is taken from (a
        # failed sweep raised above and never becomes one).  A full
        # sweep refreshes an existing base in place rather than holding
        # a second set of copies beside it.
        if self._base is None:
            self._base = [store.copy() for store in stores]
        elif full:
            for store, base in zip(stores, self._base):
                np.copyto(base, store)
        else:
            for store, base, cells in zip(stores, self._base, changed):
                base[cells] = store[cells]

    def _closure(self, stores, changed) -> Tuple[np.ndarray, np.ndarray]:
        """Candidates whose invariant instance reads a changed cell.

        Each instance reads ``pt[l]``, ``state[p]``/``owner[p]`` and
        ``gtd[t]`` for one coherent ``(l, p)`` or ``(t, p)`` pair, so the
        instances a changed cell can break are named by the cell itself
        and by its partner before (coherent base) and after the change.
        Everything else reads only unchanged cells and held at the base:
        by induction from the first full sweep, rechecking the closure
        is rechecking the device.
        """
        page_table, _, page_owner = stores[:3]
        base_table, _, base_owner = self._base[:3]
        d_lpn, d_state, d_owner = changed[:3]
        d_ppn = np.concatenate([d_state, d_owner])
        lpn_parts = [d_lpn, base_owner[d_ppn], page_owner[d_ppn]]
        ppn_parts = [d_ppn, base_table[d_lpn], page_table[d_lpn]]
        if len(stores) > 3:
            d_tvpn = changed[3]
            ppn_parts += [self._base[3][d_tvpn], stores[3][d_tvpn]]
        return _distinct_cells(lpn_parts), _distinct_cells(ppn_parts)

    def _check_mapping_coherence(self, stores, lpns, ppns) -> None:
        array = self.ftl.array
        page_table = stores[0]
        for kind, bad in coherence_findings(stores, lpns, ppns):
            first = int(bad[0])
            if kind == FORWARD_STATE:
                ppn = int(page_table[first])
                self._fail(
                    "mapping-coherence",
                    f"lpn {first} maps to ppn {ppn} whose state is "
                    f"{PageState(array.page_state[ppn]).name}, not VALID "
                    f"({len(bad)} such entries)",
                    self._mapping_snapshot(first),
                )
            elif kind == FORWARD_OWNER:
                ppn = int(page_table[first])
                self._fail(
                    "mapping-coherence",
                    f"reverse map broken: ppn {ppn} is owned by "
                    f"{int(array.page_owner[ppn])}, not lpn {first} "
                    f"({len(bad)} such entries)",
                    self._mapping_snapshot(first),
                )
            elif kind == REVERSE:
                self._fail(
                    "mapping-coherence",
                    f"valid data page {first} (owner lpn {int(array.page_owner[first])}) "
                    f"is not referenced by the page table ({len(bad)} such pages)",
                    {"ppn": first},
                )
            elif len(stores) > 3:  # with no GTD, non-data owners are not policed
                tvpn = translation_tvpn(int(array.page_owner[first]))
                self._fail(
                    "mapping-coherence",
                    f"GTD stale: tvpn {tvpn} -> {int(stores[3][tvpn])} but the "
                    f"valid translation page lives at ppn {first}",
                    {"tvpn": tvpn},
                )

    def _check_free_accounting(self) -> None:
        ftl = self.ftl
        array = ftl.array
        mask = array.block_free_mask
        num_planes = ftl.geometry.num_planes
        mask_counts = mask.reshape(num_planes, -1).sum(axis=1).tolist()
        pool_counts = [array.free_block_count(plane) for plane in range(num_planes)]
        if mask_counts != pool_counts:
            plane = next(p for p in range(num_planes) if mask_counts[p] != pool_counts[p])
            self._fail(
                "free-accounting",
                f"plane {plane}: free pool holds {pool_counts[plane]} blocks but the "
                f"free mask counts {mask_counts[plane]}",
                {"plane": plane},
            )
        for allocator in getattr(ftl, "allocators", None) or ():
            block = getattr(allocator, "current_block", None)
            if block is not None and mask[block]:
                self._fail(
                    "free-accounting",
                    f"active write block {block} of plane "
                    f"{getattr(allocator, 'plane', '?')} sits in the free pool",
                    {"block": int(block)},
                )

    def _check_shadow(self, page_state: np.ndarray, ppns: Optional[np.ndarray]) -> None:
        """The event-derived shadow model must equal the array it shadows.

        Page states are compared at ``ppns`` (every page when ``None``);
        the per-block write pointers and free flags are small enough to
        compare whole on every sweep.
        """
        if not self._shadow_synced:
            return
        array = self.ftl.array
        if ppns is None:
            bad = (self._shadow_state != page_state).nonzero()[0]
        else:
            bad = ppns[self._shadow_state[ppns] != page_state[ppns]]
        if len(bad):
            ppn = int(bad[0])
            self._fail(
                "shadow-divergence",
                f"ppn {ppn} is {PageState(array.page_state[ppn]).name} in the array "
                f"but {PageState(self._shadow_state[ppn]).name} by the array events "
                f"seen ({len(bad)} such pages)",
                {"ppn": ppn, "block": ppn // self._pages_per_block},
            )
        for what, shadow, live in (
            ("write pointer", self._shadow_ptr, array.block_write_ptr_np),
            ("free-pool flag", self._shadow_free, array.block_free_mask),
        ):
            bad = (shadow != live).nonzero()[0]
            if len(bad):
                block = int(bad[0])
                self._fail(
                    "shadow-divergence",
                    f"block {block} {what} is {int(live[block])} in the array but "
                    f"{int(shadow[block])} by the array events seen "
                    f"({len(bad)} such blocks)",
                    {"block": block},
                )

    def _mapping_snapshot(self, lpn: int) -> dict:
        array = self.ftl.array
        ppn = int(self.ftl.page_table[lpn])
        return {
            "lpn": lpn,
            "ppn": ppn,
            "page_state": int(array.page_state[ppn]) if 0 <= ppn < len(array.page_state) else None,
            "page_owner": int(array.page_owner[ppn]) if 0 <= ppn < len(array.page_owner) else None,
            "free_blocks": [
                array.free_block_count(p) for p in range(self.ftl.geometry.num_planes)
            ],
        }
