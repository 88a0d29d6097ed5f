"""Write/read amplification accounting.

Write amplification (WA) = flash pages programmed / host pages written.
It is the single number that explains most FTL performance differences:
GC moves, parity-wasted pages, translation-page traffic and merge
copies all show up here.  Copy-backs count as programs (they program a
page) even though they bypass the bus.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.counters import FlashCounters
from repro.metrics.streaming import StreamingRequestStats


@dataclass(frozen=True)
class AmplificationReport:
    host_pages_written: int
    host_pages_read: int
    flash_programs: int
    flash_reads: int
    copybacks: int
    skipped_pages: int

    @property
    def write_amplification(self) -> float:
        """(programs + copy-backs + wasted pages) / host writes."""
        if self.host_pages_written == 0:
            return 0.0
        total = self.flash_programs + self.copybacks + self.skipped_pages
        return total / self.host_pages_written

    @property
    def read_amplification(self) -> float:
        """flash reads / host reads (mapping lookups, GC reads...)."""
        if self.host_pages_read == 0:
            return 0.0
        return self.flash_reads / self.host_pages_read

    def row(self) -> dict:
        return {
            "host_writes": self.host_pages_written,
            "flash_programs": self.flash_programs,
            "copybacks": self.copybacks,
            "wasted": self.skipped_pages,
            "WA": round(self.write_amplification, 3),
            "RA": round(self.read_amplification, 3),
        }


def amplification(stats: StreamingRequestStats, counters: FlashCounters) -> AmplificationReport:
    """Build the report from a finished simulation's raw counters."""
    return AmplificationReport(
        host_pages_written=stats.pages_written,
        host_pages_read=stats.pages_read,
        flash_programs=counters.programs,
        flash_reads=counters.reads,
        copybacks=counters.copybacks,
        skipped_pages=counters.skipped_pages,
    )
