"""Determinism fingerprints: compact, machine-independent run digests.

A fingerprint captures everything an optimisation is *not* allowed to
change: the final simulated clock, how many events fired, every flash
counter, GC work totals and a CRC of the logical-to-physical map.  Two
runs of the same workload must produce byte-identical fingerprints
regardless of how the mapping tables are stored or how the event loop
dispatches — that is the contract ``tests/test_golden_fingerprints.py``
enforces against ``tests/fixtures/golden_fingerprints.json``.

Simulated clocks are floats; they are fingerprinted via ``repr`` (the
shortest round-tripping decimal), so bit-identity of the underlying
IEEE double is required, not approximate equality.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict

import numpy as np


#: Entries widened to int64 per step of :func:`checksum_int64`.
_CRC_CHUNK = 1 << 20


def checksum_int64(table: Any) -> int:
    """CRC32 of an integer table's int64 little-endian byte image.

    Accepts any integer buffer numpy can view (``numpy.ndarray``,
    ``array.array`` of any integer width), so the digest depends on the
    logical content only: a four-byte store and an eight-byte store of
    the same values digest alike.  The image is built one chunk at a
    time, never for the whole table.
    """
    values = np.asarray(table)
    crc = 0
    for start in range(0, len(values), _CRC_CHUNK):
        crc = zlib.crc32(values[start : start + _CRC_CHUNK].astype("<i8").tobytes(), crc)
    return crc & 0xFFFFFFFF


def engine_fingerprint(engine: Any) -> Dict[str, Any]:
    """Digest of an :class:`repro.sim.engine.Engine` after a run."""
    return {
        "final_clock": repr(float(engine.now)),
        "events_processed": int(engine.events_processed),
        "pending": int(engine.pending),
    }


def ftl_fingerprint(ftl: Any, final_clock: float) -> Dict[str, Any]:
    """Digest of an FTL (and its flash array) after a workload."""
    counters = ftl.clock.counters
    gc = ftl.gc_stats
    fp: Dict[str, Any] = {
        "final_clock": repr(float(final_clock)),
        "flash_reads": int(counters.reads),
        "flash_programs": int(counters.programs),
        "flash_erases": int(counters.erases),
        "flash_copybacks": int(counters.copybacks),
        "flash_interplane_copies": int(counters.interplane_copies),
        "flash_skipped_pages": int(counters.skipped_pages),
        "gc_passes": int(gc.passes),
        "gc_moved_pages": int(gc.moved_pages),
        "gc_erased_blocks": int(gc.erased_blocks),
        "gc_wasted_pages": int(gc.wasted_pages),
        "host_writes": int(ftl.stats.host_writes),
        "host_reads": int(ftl.stats.host_reads),
        "page_table_crc": checksum_int64(ftl.page_table),
        "page_owner_crc": checksum_int64(ftl.array.page_owner),
        "erase_count_crc": checksum_int64(ftl.array.block_erase_count),
    }
    if hasattr(ftl, "cmt"):
        fp["cmt_hits"] = int(ftl.cmt.stats.hits)
        fp["cmt_misses"] = int(ftl.cmt.stats.misses)
    return fp
