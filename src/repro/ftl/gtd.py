"""Global Translation Directory.

Maps translation-page virtual numbers (tvpn) to the physical page that
currently stores that slice of the logical-to-physical map.  Each
translation page packs ``page_size / 4`` four-byte mapping entries
(DFTL's layout), so ``tvpn = lpn // entries_per_tpage``.

The GTD itself is small enough to live in SRAM (one entry per
translation page), so directory lookups are free; only translation
*page* reads/writes cost flash time.
"""

from __future__ import annotations

import math
from array import array


class GlobalTranslationDirectory:
    ENTRY_BYTES = 4

    def __init__(self, num_lpns: int, page_size: int):
        if num_lpns < 1:
            raise ValueError("num_lpns must be >= 1")
        self.entries_per_tpage = max(1, page_size // self.ENTRY_BYTES)
        self.num_tpages = math.ceil(num_lpns / self.entries_per_tpage)
        # Flat four-byte directory: tvpn -> ppn, -1 when never materialised.
        self.tpage_ppn = array("i", [-1]) * self.num_tpages

    def tvpn_of(self, lpn: int) -> int:
        return lpn // self.entries_per_tpage

    def lookup(self, tvpn: int) -> int:
        """PPN of a translation page, or -1 if never materialised."""
        return self.tpage_ppn[tvpn]

    def update(self, tvpn: int, ppn: int) -> None:
        self.tpage_ppn[tvpn] = ppn

    def clear(self) -> None:
        """Forget every entry (crash recovery rebuilds from the flash scan).

        In-place so references to the flat store stay valid.
        """
        self.tpage_ppn[:] = array("i", [-1]) * self.num_tpages

    def is_mapped(self, tvpn: int) -> bool:
        return self.tpage_ppn[tvpn] != -1
