"""Physical address arithmetic.

A physical page number (PPN) packs ``(plane, block_in_plane,
page_in_block)`` into one integer:

    ppn = (plane * physical_blocks_per_plane + block) * pages_per_block + page

Global block ids follow the same layout without the page component.
Page *owners* (what a physical page currently stores) are encoded in a
single int32: ``owner >= 0`` is a data LPN, ``owner <= -2`` is a
translation page (``tvpn = -owner - 2``), and ``-1`` means unwritten.
"""

from __future__ import annotations

import enum

from repro.flash.geometry import SSDGeometry


class PageState(enum.IntEnum):
    FREE = 0
    VALID = 1
    INVALID = 2


OWNER_NONE = -1


def encode_translation_owner(tvpn: int) -> int:
    """Encode a translation virtual page number as a page owner."""
    if tvpn < 0:
        raise ValueError(f"tvpn must be >= 0, got {tvpn}")
    return -tvpn - 2


def decode_translation_owner(owner: int) -> int:
    """Inverse of :func:`encode_translation_owner`."""
    if owner > -2:
        raise ValueError(f"not a translation owner: {owner}")
    return -owner - 2


def is_translation_owner(owner: int) -> bool:
    return owner <= -2


class AddressCodec:
    """PPN/block packing bound to one geometry."""

    __slots__ = ("geometry", "_blocks_per_plane", "_pages_per_block")

    def __init__(self, geometry: SSDGeometry):
        self.geometry = geometry
        self._blocks_per_plane = geometry.physical_blocks_per_plane
        self._pages_per_block = geometry.pages_per_block

    # ---- pages ----------------------------------------------------------

    def make_ppn(self, plane: int, block_in_plane: int, page_in_block: int) -> int:
        if not 0 <= page_in_block < self._pages_per_block:
            raise ValueError(f"page_in_block out of range: {page_in_block}")
        if not 0 <= block_in_plane < self._blocks_per_plane:
            raise ValueError(f"block_in_plane out of range: {block_in_plane}")
        if not 0 <= plane < self.geometry.num_planes:
            raise ValueError(f"plane out of range: {plane}")
        return (plane * self._blocks_per_plane + block_in_plane) * self._pages_per_block + page_in_block

    def ppn_to_plane(self, ppn: int) -> int:
        return ppn // (self._blocks_per_plane * self._pages_per_block)

    def ppn_to_block(self, ppn: int) -> int:
        """Global block id of a PPN."""
        return ppn // self._pages_per_block

    def ppn_to_page(self, ppn: int) -> int:
        """Page offset within its block."""
        return ppn % self._pages_per_block

    def page_parity(self, ppn: int) -> int:
        """0 = even page address, 1 = odd (same-parity copy-back rule)."""
        return (ppn % self._pages_per_block) & 1

    # ---- blocks ---------------------------------------------------------

    def make_block(self, plane: int, block_in_plane: int) -> int:
        if not 0 <= block_in_plane < self._blocks_per_plane:
            raise ValueError(f"block_in_plane out of range: {block_in_plane}")
        return plane * self._blocks_per_plane + block_in_plane

    def block_to_plane(self, block: int) -> int:
        return block // self._blocks_per_plane

    def block_to_index_in_plane(self, block: int) -> int:
        return block % self._blocks_per_plane

    def block_first_ppn(self, block: int) -> int:
        return block * self._pages_per_block

    def block_ppns(self, block: int) -> range:
        first = block * self._pages_per_block
        return range(first, first + self._pages_per_block)
