"""Flash array state: page states, owners, per-block bookkeeping, free pools.

The array enforces NAND physics on state transitions:

* a page can only be programmed when FREE, and only in ascending page
  order within its block (skipping pages forward is legal);
* only whole blocks are erased, and only when they hold no VALID page
  (the FTL must have relocated valid data first);
* erase counts accumulate per block (wear).

Timing lives in :mod:`repro.flash.timekeeper`; this module is pure state.

Storage layout
--------------

Per-page and per-block tables are flat Python buffers (``bytearray`` for
page states, four-byte ``array('i')`` for page owners, ``array('q')``
for the per-block counters and the OOB generations): scalar reads/writes
on the hot path cost one ``BINARY_SUBSCR`` instead of a boxed numpy
scalar.  Owners are LPNs or translation owners, both bounded by
:data:`repro.flash.geometry.MAX_PAGES`.
Every table also exposes a zero-copy numpy view (``*_np``) over the same
memory for the vectorised consumers (victim selection, wear levelling,
integrity checks, the runtime sanitizer).  The buffers are never resized,
so the views stay valid for the array's lifetime; mutate through either
side, both see it.

When the trace bus is enabled, every state transition additionally
publishes an ``array``-category instant event (``program`` /
``invalidate`` / ``skip`` / ``erase`` / ``alloc_block`` /
``release_block`` / ``bulk_fill`` / ``mark_bad`` / ``retire_block``)
carrying the PPN or block id.  These events are *timeless* (the array holds no clock, so
``ts_us`` is 0) and exist for state validators — the runtime sanitizer
(:mod:`repro.lint.sanitizer`) rebuilds an independent shadow NAND model
from them; the Chrome-trace exporter filters them out.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Iterator, List, Optional

import numpy as np

from repro.flash.address import OWNER_NONE, AddressCodec, PageState
from repro.flash.geometry import SSDGeometry
from repro.obs.tracebus import BUS

#: ``PageState`` as plain ints, for the flat ``page_state`` store.
PAGE_FREE = int(PageState.FREE)
PAGE_VALID = int(PageState.VALID)
PAGE_INVALID = int(PageState.INVALID)


class FlashStateError(RuntimeError):
    """A state transition violated NAND constraints."""


class FlashArray:
    """Mutable physical state of the whole flash device."""

    def __init__(self, geometry: SSDGeometry):
        self.geometry = geometry
        self.codec = AddressCodec(geometry)
        n_pages = geometry.num_physical_pages
        n_blocks = geometry.num_physical_blocks
        ppb = geometry.pages_per_block

        # Flat scalar-fast stores ...
        self.page_state = bytearray(n_pages) if PAGE_FREE == 0 else bytearray([PAGE_FREE]) * n_pages
        self.page_owner = array("i", [OWNER_NONE]) * n_pages
        self.block_valid = array("q", bytes(8 * n_blocks))
        self.block_invalid = array("q", bytes(8 * n_blocks))
        # Next programmable page offset per block (ascending-order rule).
        self.block_write_ptr = array("q", bytes(8 * n_blocks))
        self.block_erase_count = array("q", bytes(8 * n_blocks))
        # Monotonic program stamp per block (for age-based GC policies).
        self.block_write_stamp = array("q", bytes(8 * n_blocks))
        # ... and their zero-copy numpy views for vectorised consumers.
        self.page_state_np = np.frombuffer(self.page_state, dtype=np.uint8)
        self.page_owner_np = np.frombuffer(self.page_owner, dtype=np.int32)
        self.block_valid_np = np.frombuffer(self.block_valid, dtype=np.int64)
        self.block_invalid_np = np.frombuffer(self.block_invalid, dtype=np.int64)
        self.block_write_ptr_np = np.frombuffer(self.block_write_ptr, dtype=np.int64)
        self.block_erase_count_np = np.frombuffer(self.block_erase_count, dtype=np.int64)
        self.block_write_stamp_np = np.frombuffer(self.block_write_stamp, dtype=np.int64)

        self.write_stamp = 0
        self._pages_per_block = ppb

        # Free block pools, one per plane.  Initially every block is free.
        bpp = geometry.physical_blocks_per_plane
        self._free_pools: List[Deque[int]] = [
            deque(range(plane * bpp, (plane + 1) * bpp)) for plane in range(geometry.num_planes)
        ]
        self._block_is_free = bytearray([1]) * n_blocks
        self._block_is_bad = bytearray(n_blocks)
        self._block_is_free_np = np.frombuffer(self._block_is_free, dtype=np.bool_)
        self._block_is_bad_np = np.frombuffer(self._block_is_bad, dtype=np.bool_)
        #: Optional callable ``block -> bool``; True retires the block at
        #: release time instead of pooling it (end-of-life wear-out).
        self.retirement_policy = None
        #: Blocks flagged for unconditional retirement at release time
        #: (erase failure injected by ``repro.faults``); checked before
        #: ``retirement_policy`` so a failing block always leaves
        #: circulation regardless of wear state.
        self.force_retire: set = set()
        #: O(1) running total of bad blocks (factory + retired); the
        #: equivalent ``np.count_nonzero`` scan is too slow for
        #: per-sample telemetry.
        self.bad_block_total = 0

        # Low-watermark tracking: when an FTL registers its GC threshold,
        # the array counts planes whose free pool sits below it, updated
        # O(1) on every pool transition.  ``_maybe_gc`` can then skip its
        # per-write all-planes scan whenever nothing is low.
        self._gc_threshold: Optional[int] = None
        self.gc_low_plane_count = 0

        # Modeled OOB content generations (torture campaigns' durability
        # oracle).  ``None`` when disarmed: every hot-path branch below
        # is a single ``is None`` test, so untortured runs stay
        # bit-identical and pay no bookkeeping cost.
        self.page_gen: Optional[array] = None
        self.page_gen_np: Optional[np.ndarray] = None
        self.lpn_gen: Optional[array] = None
        self.lpn_gen_np: Optional[np.ndarray] = None
        # Auto-increment content counters for non-data owners
        # (translation pages, journal pages).
        self._owner_gen: dict = {}
        # One pending ``(owner, generation)`` pair staged by a
        # relocation copy; consumed by the next program of that owner.
        self._staged_gen: Optional[tuple] = None

    # ---- pool management -------------------------------------------------

    def free_block_count(self, plane: int) -> int:
        return len(self._free_pools[plane])

    def register_gc_threshold(self, threshold: int) -> None:
        """Maintain ``gc_low_plane_count`` against ``threshold`` free blocks.

        Idempotent; re-registering (e.g. after a power cycle rebuild)
        recomputes the count from the current pools.
        """
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self._gc_threshold = threshold
        self.gc_low_plane_count = sum(1 for pool in self._free_pools if len(pool) < threshold)

    def allocate_block(self, plane: int) -> int:
        """Take a free block out of a plane's pool."""
        pool = self._free_pools[plane]
        if not pool:
            raise FlashStateError(f"plane {plane} has no free blocks")
        block = pool.popleft()
        self._block_is_free[block] = 0
        if len(pool) + 1 == self._gc_threshold:  # crossed below the watermark
            self.gc_low_plane_count += 1
        if BUS.enabled:
            BUS.emit("array", "alloc_block", 0.0, 0.0, {"block": block, "plane": plane}, None, "i")
        return block

    def release_block(self, block: int) -> None:
        """Return an erased block to its plane's pool.

        If a ``retirement_policy`` is installed and flags the block
        (wear-out), the block is marked bad and leaves circulation
        instead.
        """
        if self._block_is_free[block]:
            raise FlashStateError(f"block {block} already in free pool")
        if self.block_write_ptr[block] != 0:
            raise FlashStateError(f"block {block} must be erased before release")
        if (block in self.force_retire) or (
            self.retirement_policy is not None and self.retirement_policy(block)
        ):
            self.force_retire.discard(block)
            self._block_is_bad[block] = 1
            self.bad_block_total += 1
            if BUS.enabled:
                BUS.emit("array", "release_block", 0.0, 0.0,
                         {"block": block, "retired": True}, None, "i")
            return
        plane = self.codec.block_to_plane(block)
        pool = self._free_pools[plane]
        pool.append(block)
        self._block_is_free[block] = 1
        if len(pool) == self._gc_threshold:  # climbed back to the watermark
            self.gc_low_plane_count -= 1
        if BUS.enabled:
            BUS.emit("array", "release_block", 0.0, 0.0,
                     {"block": block, "retired": False}, None, "i")

    def mark_bad(self, block: int) -> None:
        """Retire a block from the free pool (factory bad block)."""
        if not self._block_is_free[block]:
            raise FlashStateError(f"cannot factory-retire in-use block {block}")
        plane = self.codec.block_to_plane(block)
        pool = self._free_pools[plane]
        pool.remove(block)
        self._block_is_free[block] = 0
        self._block_is_bad[block] = 1
        self.bad_block_total += 1
        if len(pool) + 1 == self._gc_threshold:  # crossed below the watermark
            self.gc_low_plane_count += 1
        if BUS.enabled:
            BUS.emit("array", "mark_bad", 0.0, 0.0, {"block": block}, None, "i")

    def retire_block(self, block: int) -> None:
        """Retire an in-use block whose valid pages have been relocated.

        Runtime (mid-life) retirement after a program failure: the block
        is *not* erased — its media is no longer trusted — so any
        invalid pages simply stay invalid forever.  The FTL must have
        moved all valid data out first.
        """
        if self._block_is_free[block]:
            raise FlashStateError(f"cannot runtime-retire pooled free block {block}")
        if self._block_is_bad[block]:
            raise FlashStateError(f"block {block} already retired")
        if self.block_valid[block] != 0:
            raise FlashStateError(
                f"runtime retirement of block {block} with {self.block_valid[block]} valid pages"
            )
        self.force_retire.discard(block)
        self._block_is_bad[block] = 1
        self.bad_block_total += 1
        if BUS.enabled:
            BUS.emit("array", "retire_block", 0.0, 0.0, {"block": block}, None, "i")

    def is_block_bad(self, block: int) -> bool:
        return bool(self._block_is_bad[block])

    @property
    def bad_block_mask(self) -> np.ndarray:
        return self._block_is_bad_np

    def bad_block_count(self) -> int:
        return self.bad_block_total

    def is_block_free(self, block: int) -> bool:
        return bool(self._block_is_free[block])

    @property
    def block_free_mask(self) -> np.ndarray:
        """Read-only view: True where the block sits in a free pool."""
        return self._block_is_free_np

    # ---- OOB content generations (torture campaigns) -----------------------

    def enable_oob_generations(self) -> None:
        """Arm per-page content-generation stamps in the modeled OOB.

        Each programmed page carries the generation of the content it
        holds: for data pages the issue-time generation of the LPN (the
        acknowledgment ledger bumps ``lpn_gen`` when the host write is
        issued), for translation/journal pages an auto-increment per
        owner.  The durability oracle compares the generation mapped
        after a crash against what the host was acknowledged.
        Idempotent; there is no disarm — campaigns build a fresh array
        per replay.
        """
        if self.page_gen is not None:
            return
        self.page_gen = array("q", bytes(8 * self.geometry.num_physical_pages))
        self.page_gen_np = np.frombuffer(self.page_gen, dtype=np.int64)
        self.lpn_gen = array("q", bytes(8 * self.geometry.num_lpns))
        self.lpn_gen_np = np.frombuffer(self.lpn_gen, dtype=np.int64)
        self._owner_gen = {}
        self._staged_gen = None

    def stage_copy_gen(self, src_ppn: int) -> None:
        """Stage ``src_ppn``'s generation for the next program of the
        same owner.

        Relocation copies (GC, merges, retirement drains) preserve the
        *content* of the source page, which may be older than the
        latest issued generation of the owner (newer content can sit
        unflushed in the DRAM write buffer) — stamping ``lpn_gen`` on a
        copy would falsely promote stale flash content.  No-op when
        generations are disarmed.
        """
        if self.page_gen is None:
            return
        self._staged_gen = (self.page_owner[src_ppn], self.page_gen[src_ppn])

    def clear_staged_gen(self) -> None:
        """Drop any staged relocation generation (request boundary)."""
        self._staged_gen = None

    def read_gen(self, ppn: int) -> Optional[int]:
        """The content generation stamped on ``ppn`` (None when disarmed)."""
        if self.page_gen is None:
            return None
        return self.page_gen[ppn]

    def restamp_gen(self, ppn: int, gen: int) -> None:
        """Overwrite ``ppn``'s generation after an indirect relocation.

        For relocation paths that cannot stage (the copy's program may
        be preceded by unrelated programs of the same owner, e.g. a
        FAST merge triggered while appending): capture the source
        generation with :meth:`read_gen` first, then restamp the final
        location.  No-op when disarmed.
        """
        if self.page_gen is not None:
            self.page_gen[ppn] = gen

    # ---- page operations ---------------------------------------------------

    def program(self, ppn: int, owner: int) -> None:
        """Program a FREE page with ``owner`` (ascending order enforced)."""
        if self.page_state[ppn] != PAGE_FREE:
            raise FlashStateError(f"program of non-free page {ppn}")
        ppb = self._pages_per_block
        block = ppn // ppb
        offset = ppn - block * ppb
        if offset < self.block_write_ptr[block]:
            raise FlashStateError(
                f"out-of-order program: page {offset} of block {block}, write ptr at {self.block_write_ptr[block]}"
            )
        if self._block_is_free[block]:
            raise FlashStateError(f"program into unallocated block {block}")
        # Skipped-over pages stay FREE but can never be programmed later.
        self.block_write_ptr[block] = offset + 1
        self.page_state[ppn] = PAGE_VALID
        self.page_owner[ppn] = owner
        self.block_valid[block] += 1
        self.write_stamp += 1
        self.block_write_stamp[block] = self.write_stamp
        if self.page_gen is not None:
            gen = self.stamp_gen(ppn, owner)
            if BUS.enabled:
                BUS.emit("array", "program", 0.0, 0.0,
                         {"ppn": ppn, "owner": owner, "gen": gen}, None, "i")
        elif BUS.enabled:
            BUS.emit("array", "program", 0.0, 0.0, {"ppn": ppn, "owner": owner}, None, "i")

    def stamp_gen(self, ppn: int, owner: int) -> int:
        """Stamp a just-programmed page's content generation (armed OOB
        generations only); returns it."""
        staged = self._staged_gen
        if staged is not None and staged[0] == owner:
            gen = staged[1]
            self._staged_gen = None
        elif owner >= 0:
            gen = self.lpn_gen[owner]
        else:
            gen = self._owner_gen.get(owner, 0) + 1
            self._owner_gen[owner] = gen
        self.page_gen[ppn] = gen
        return gen

    def invalidate(self, ppn: int) -> None:
        """Mark a VALID page stale (out-of-place update or relocation)."""
        if self.page_state[ppn] != PAGE_VALID:
            raise FlashStateError(f"invalidate of non-valid page {ppn}")
        block = ppn // self._pages_per_block
        self.page_state[ppn] = PAGE_INVALID
        self.page_owner[ppn] = OWNER_NONE
        self.block_valid[block] -= 1
        self.block_invalid[block] += 1
        if BUS.enabled:
            BUS.emit("array", "invalidate", 0.0, 0.0, {"ppn": ppn}, None, "i")

    def skip_page(self, ppn: int) -> None:
        """Deliberately waste a FREE page (same-parity policy, Fig. 5b).

        The page is counted as INVALID so garbage collection can reclaim
        the space, and the block write pointer moves past it.
        """
        if self.page_state[ppn] != PAGE_FREE:
            raise FlashStateError(f"skip of non-free page {ppn}")
        ppb = self._pages_per_block
        block = ppn // ppb
        offset = ppn - block * ppb
        if offset < self.block_write_ptr[block]:
            raise FlashStateError(f"skip behind write pointer in block {block}")
        self.block_write_ptr[block] = offset + 1
        self.page_state[ppn] = PAGE_INVALID
        self.block_invalid[block] += 1
        if BUS.enabled:
            BUS.emit("array", "skip", 0.0, 0.0, {"ppn": ppn}, None, "i")

    def erase(self, block: int) -> None:
        """Erase a block that carries no valid data."""
        if self.block_valid[block] != 0:
            raise FlashStateError(f"erase of block {block} with {self.block_valid[block]} valid pages")
        if self._block_is_free[block]:
            raise FlashStateError(f"erase of pooled free block {block}")
        ppns = self.codec.block_ppns(block)
        self.page_state_np[ppns.start : ppns.stop] = PAGE_FREE
        self.page_owner_np[ppns.start : ppns.stop] = OWNER_NONE
        self.block_invalid[block] = 0
        self.block_write_ptr[block] = 0
        self.block_erase_count[block] += 1
        if BUS.enabled:
            BUS.emit("array", "erase", 0.0, 0.0, {"block": block}, None, "i")

    def bulk_fill_block(self, block: int, owners: np.ndarray) -> np.ndarray:
        """Program ``owners`` into a freshly allocated block's first pages.

        Vectorised fast path for device preconditioning: equivalent to
        ``program`` called sequentially from offset 0.  Returns the PPNs.
        Callers pass int32 ``owners`` and get int32 PPNs back, the
        address stores' dtype, so neither store assignment casts.
        """
        n = len(owners)
        if n < 1 or n > self._pages_per_block:
            raise ValueError(f"owners must hold 1..{self._pages_per_block} entries")
        if self._block_is_free[block]:
            raise FlashStateError(f"bulk fill into unallocated block {block}")
        if self.block_write_ptr[block] != 0:
            raise FlashStateError(f"bulk fill into partially written block {block}")
        first = self.codec.block_first_ppn(block)
        self.page_state_np[first : first + n] = PAGE_VALID
        self.page_owner_np[first : first + n] = owners
        self.block_valid[block] = n
        self.block_write_ptr[block] = n
        self.write_stamp += n
        self.block_write_stamp[block] = self.write_stamp
        if self.page_gen is not None:
            # Preconditioning fills carry the owners' current issue
            # generations (0 for never-written LPNs, so a fresh fill is
            # all generation-0 content).
            data = owners >= 0
            self.page_gen_np[first : first + n][data] = self.lpn_gen_np[owners[data]]
        if BUS.enabled:
            BUS.emit("array", "bulk_fill", 0.0, 0.0, {"block": block, "count": n}, None, "i")
        return np.arange(first, first + n, dtype=np.int32)

    # ---- queries ------------------------------------------------------------

    def valid_pages_in_block(self, block: int) -> Iterator[int]:
        """PPNs of valid pages in a block, in ascending page order."""
        first = block * self._pages_per_block
        states = self.page_state[first : first + self._pages_per_block]
        for offset, state in enumerate(states):
            if state == PAGE_VALID:
                yield first + offset

    def owner_of(self, ppn: int) -> int:
        return self.page_owner[ppn]

    def state_of(self, ppn: int) -> PageState:
        return PageState(self.page_state[ppn])

    def block_free_pages(self, block: int) -> int:
        """Programmable pages remaining in a block (past the write pointer)."""
        return self._pages_per_block - self.block_write_ptr[block]

    def plane_blocks(self, plane: int) -> range:
        bpp = self.codec._blocks_per_plane
        return range(plane * bpp, (plane + 1) * bpp)

    def utilization(self) -> float:
        """Fraction of physical pages currently valid."""
        return float(np.count_nonzero(self.page_state_np == PAGE_VALID)) / len(self.page_state)

    def check_consistency(self) -> None:
        """Expensive invariant check used by tests and debug runs."""
        for block in range(self.geometry.num_physical_blocks):
            first = block * self._pages_per_block
            states = self.page_state_np[first : first + self._pages_per_block]
            n_valid = int(np.count_nonzero(states == PAGE_VALID))
            n_invalid = int(np.count_nonzero(states == PAGE_INVALID))
            if n_valid != self.block_valid[block]:
                raise FlashStateError(f"block {block}: valid count {self.block_valid[block]} != {n_valid}")
            if n_invalid != self.block_invalid[block]:
                raise FlashStateError(f"block {block}: invalid count {self.block_invalid[block]} != {n_invalid}")
            ptr = self.block_write_ptr[block]
            if np.any(states[ptr:] != PAGE_FREE):
                raise FlashStateError(f"block {block}: non-free page past write pointer {ptr}")
