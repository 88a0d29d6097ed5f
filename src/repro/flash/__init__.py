"""NAND flash device model — the FlashSim-equivalent hardware substrate.

Models the physical hierarchy of Fig. 1 (channels, packages, chips,
dies, planes, blocks, pages), the Table I timing parameters, page and
block state, and the command set including the advanced operations the
paper's extension adds: intra-plane copy-back (with the same-parity
restriction) and channel interleaving.
"""

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.flash.address import AddressCodec, PageState
from repro.flash.array import FlashArray
from repro.flash.timekeeper import FlashTimekeeper
from repro.flash.counters import FlashCounters
from repro.flash.badblocks import BadBlockManager

__all__ = [
    "SSDGeometry",
    "TimingParams",
    "AddressCodec",
    "PageState",
    "FlashArray",
    "FlashTimekeeper",
    "FlashCounters",
    "BadBlockManager",
]
