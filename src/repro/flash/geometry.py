"""SSD geometry: the physical hierarchy of Fig. 1.

channels > packages > chips > dies > planes > blocks > pages.

``blocks_per_plane`` counts *data* blocks (the data-sheet capacity a
user sees).  Extra (over-provisioned) blocks are a percentage on top,
invisible to the host, per Section III.C.

Plane enumeration is **channel-interleaved**: global plane index ``p``
lives on channel ``p % channels``.  With DLOOP's ``LPN % num_planes``
striping this sends consecutive logical pages to distinct channels as
well as distinct planes, which is the interleaving behaviour the
paper's extended simulator implements (Section IV.B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


GB = 1024 ** 3
MB = 1024 ** 2
KB = 1024

#: Exclusive bound on physical pages and LPNs: PPNs, LPNs and the
#: translation-owner encoding (``-tvpn - 2``) live in four-byte
#: ``array('i')`` stores.
MAX_PAGES = 2 ** 31


@dataclass(frozen=True)
class SSDGeometry:
    """Physical organisation of the simulated flash SSD.

    Defaults mirror the paper's fixed configuration (Table I): an 8 GB
    SSD with 2 KB pages, 64 pages per block, 3 % extra blocks, and
    8 channels x 2 dies x 2 planes = 32 planes, which yields the
    2,048 data blocks per plane quoted in Section III.C.
    """

    channels: int = 8
    packages_per_channel: int = 1
    chips_per_package: int = 1
    dies_per_chip: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 2048
    pages_per_block: int = 64
    page_size: int = 2 * KB
    extra_blocks_percent: float = 3.0
    #: Plane enumeration: "channel-interleaved" (plane p -> channel
    #: p %% channels, so LPN striping fans consecutive pages over
    #: channels) or "die-major" (consecutive plane indices share a die,
    #: then a channel — the naive layout; kept for the A10 ablation).
    plane_order: str = "channel-interleaved"

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "packages_per_channel",
            "chips_per_package",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.extra_blocks_percent < 0:
            raise ValueError("extra_blocks_percent must be >= 0")
        if self.pages_per_block % 2 != 0:
            raise ValueError("pages_per_block must be even (same-parity copy-back)")
        if self.plane_order not in ("channel-interleaved", "die-major"):
            raise ValueError("plane_order must be 'channel-interleaved' or 'die-major'")
        # LPNs never outnumber physical pages, so one bound covers both.
        if self.num_physical_pages >= MAX_PAGES:
            raise ValueError(
                f"{self.num_physical_pages} physical pages: physical pages and "
                f"LPNs must stay below 2**31 = {MAX_PAGES} (four-byte address stores)"
            )

    # ---- derived sizes -------------------------------------------------

    @property
    def dies_per_channel(self) -> int:
        return self.packages_per_channel * self.chips_per_package * self.dies_per_chip

    @property
    def num_dies(self) -> int:
        return self.channels * self.dies_per_channel

    @property
    def num_planes(self) -> int:
        return self.num_dies * self.planes_per_die

    @property
    def extra_blocks_per_plane(self) -> int:
        """Over-provisioned blocks per plane (rounded up, min 0)."""
        return math.ceil(self.blocks_per_plane * self.extra_blocks_percent / 100.0)

    @property
    def physical_blocks_per_plane(self) -> int:
        return self.blocks_per_plane + self.extra_blocks_per_plane

    @property
    def pages_per_plane(self) -> int:
        """Physical pages per plane (including extra blocks)."""
        return self.physical_blocks_per_plane * self.pages_per_block

    @property
    def num_physical_blocks(self) -> int:
        return self.num_planes * self.physical_blocks_per_plane

    @property
    def num_physical_pages(self) -> int:
        return self.num_physical_blocks * self.pages_per_block

    @property
    def num_data_blocks(self) -> int:
        return self.num_planes * self.blocks_per_plane

    @property
    def num_lpns(self) -> int:
        """Logical pages exposed to the host (data-sheet capacity)."""
        return self.num_data_blocks * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.num_lpns * self.page_size

    # ---- topology ------------------------------------------------------

    def plane_to_channel(self, plane: int) -> int:
        """Channel serving a global plane index."""
        if self.plane_order == "channel-interleaved":
            return plane % self.channels
        planes_per_channel = self.num_planes // self.channels
        return plane // planes_per_channel

    # ---- construction helpers ------------------------------------------

    @classmethod
    def from_capacity(
        cls,
        capacity_bytes: int,
        *,
        page_size: int = 2 * KB,
        pages_per_block: int = 64,
        channels: int = 8,
        dies_per_chip: int = 2,
        planes_per_die: int = 2,
        packages_per_channel: int = 1,
        chips_per_package: int = 1,
        extra_blocks_percent: float = 3.0,
    ) -> "SSDGeometry":
        """Build a geometry with the requested data-sheet capacity.

        Capacity scales by varying ``blocks_per_plane`` while the plane
        count stays fixed, matching how the paper's capacity experiment
        (Fig. 8) enlarges the SSD.
        """
        num_planes = channels * packages_per_channel * chips_per_package * dies_per_chip * planes_per_die
        block_bytes = page_size * pages_per_block
        total_blocks = capacity_bytes / block_bytes
        blocks_per_plane = int(round(total_blocks / num_planes))
        if blocks_per_plane < 1:
            raise ValueError(
                f"capacity {capacity_bytes} too small for {num_planes} planes of {block_bytes}-byte blocks"
            )
        return cls(
            channels=channels,
            packages_per_channel=packages_per_channel,
            chips_per_package=chips_per_package,
            dies_per_chip=dies_per_chip,
            planes_per_die=planes_per_die,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=pages_per_block,
            page_size=page_size,
            extra_blocks_percent=extra_blocks_percent,
        )

    def describe(self) -> dict:
        """Table I-style parameter summary."""
        return {
            "SSD capacity (GB)": self.capacity_bytes / GB,
            "Page size (KB)": self.page_size / KB,
            "Pages per block": self.pages_per_block,
            "Percentage of extra blocks": self.extra_blocks_percent,
            "Channels": self.channels,
            "Planes": self.num_planes,
            "Data blocks per plane": self.blocks_per_plane,
            "Extra blocks per plane": self.extra_blocks_per_plane,
        }
