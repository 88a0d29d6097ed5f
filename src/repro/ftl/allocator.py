"""Write-point allocators.

:class:`PlaneAllocator` implements the paper's per-plane *current free
block / current free page* pointers (Section III.B): pages are handed
out strictly sequentially within the current block; when it fills, a
new block is pulled from the same plane's free pool.  It also provides
the parity-constrained allocation GC needs for copy-back destinations
(Section III.A): when the next free page's parity differs from the
source page's, one page is deliberately skipped (wasted).

:class:`RoamingAllocator` models DFTL's allocation behaviour as the
paper describes it (Section V.B): a single global active block served
sequentially, refilled from whichever plane currently has the most
free blocks — so bursts of writes queue on one plane at a time.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.flash.array import FlashArray, FlashStateError


class PlaneAllocator:
    """Sequential page allocator bound to one plane."""

    def __init__(self, plane: int, array: FlashArray):
        self.plane = plane
        self.array = array
        self.current_block: Optional[int] = None
        self._ppb = array.geometry.pages_per_block

    def _ensure_block(self) -> int:
        block = self.current_block
        if block is None or self.array.block_write_ptr[block] == self._ppb:
            block = self.array.allocate_block(self.plane)
            self.current_block = block
        return block

    def next_offset(self) -> int:
        """Page offset the next allocation would use (may open a new block)."""
        return self.array.block_write_ptr[self._ensure_block()]

    def allocate(self, owner: int) -> int:
        """Program ``owner`` into the current free page; returns its PPN."""
        array = self.array
        block = self.current_block
        if block is None or array.block_write_ptr[block] == self._ppb:
            block = array.allocate_block(self.plane)
            self.current_block = block
        ppn = block * self._ppb + array.block_write_ptr[block]
        array.program(ppn, owner)
        return ppn

    def seek_parity(self, parity: int) -> Tuple[int, int, int]:
        """Advance the write point to its next page of ``parity``.

        Returns ``(block, offset, skipped)`` where ``skipped`` is the
        number of free pages wasted to honour the same-parity copy-back
        rule (0, 1 or — across a block boundary — 2; Fig. 5b).
        """
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        array = self.array
        ppb = self._ppb
        block = self._ensure_block()
        offset = array.block_write_ptr[block]
        skipped = 0
        if (offset & 1) != parity:
            array.skip_page(block * ppb + offset)
            skipped = 1
            if offset == ppb - 1:
                # Last page had the wrong parity: open a new block.
                block = self._ensure_block()
                offset = array.block_write_ptr[block]
                if (offset & 1) != parity:  # fresh block starts at 0; parity 1 needs one skip
                    array.skip_page(block * ppb + offset)
                    skipped = 2
                    offset += 1
            else:
                offset += 1
        return block, offset, skipped

    def allocate_with_parity(self, owner: int, parity: int) -> Tuple[int, int]:
        """Program ``owner`` into a page whose offset parity matches;
        returns ``(ppn, skipped)``."""
        block, offset, skipped = self.seek_parity(parity)
        ppn = block * self._ppb + offset
        self.array.program(ppn, owner)
        return ppn, skipped

    def active_blocks(self) -> set:
        """Blocks GC must not pick as victims."""
        return {self.current_block} if self.current_block is not None else set()


class RoamingAllocator:
    """DFTL-style single active block roaming across planes."""

    #: Not bound to a plane (:class:`PlaneAllocator` instances are).
    plane = None

    def __init__(self, array: FlashArray, planes: Optional[range] = None):
        self.array = array
        self.planes = planes if planes is not None else range(array.geometry.num_planes)
        self.current_block: Optional[int] = None
        self.current_plane: Optional[int] = None
        self._ppb = array.geometry.pages_per_block

    def _pick_plane(self) -> int:
        # the first plane among the fullest (``max`` keeps the first of equals)
        plane = max(self.planes, key=self.array.free_block_count)
        if self.array.free_block_count(plane) == 0:
            raise FlashStateError("no free blocks on any plane")
        return plane

    def _ensure_block(self) -> int:
        block = self.current_block
        if block is None or self.array.block_write_ptr[block] == self._ppb:
            plane = self._pick_plane()
            block = self.array.allocate_block(plane)
            self.current_block = block
            self.current_plane = plane
        return block

    def allocate(self, owner: int) -> int:
        """Program ``owner`` into the global active block; returns its PPN."""
        block = self._ensure_block()
        ppn = block * self._ppb + self.array.block_write_ptr[block]
        self.array.program(ppn, owner)
        return ppn

    def peek_plane(self) -> int:
        """Plane the next allocation will land on."""
        self._ensure_block()
        assert self.current_plane is not None
        return self.current_plane

    def active_blocks(self) -> set:
        return {self.current_block} if self.current_block is not None else set()
