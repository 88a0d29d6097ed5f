"""Operation counters: per-plane traffic and per-command totals.

The per-plane counts feed the paper's SDRPP metric (standard deviation
of requests per plane, Section V.A); the command totals quantify GC
overhead and copy-back usage.

The per-plane/per-channel accumulators are plain Python lists: they are
bumped one scalar at a time on every flash operation, where list
indexing beats boxed numpy scalar arithmetic severalfold.  Consumers
that want vectorised math wrap them in ``np.asarray`` at read time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class FlashCounters:
    num_planes: int
    num_channels: int
    plane_ops: List[int] = field(init=False)
    reads: int = 0
    programs: int = 0
    erases: int = 0
    copybacks: int = 0
    interplane_copies: int = 0
    skipped_pages: int = 0
    #: extra read sense operations spent on correctable read errors
    #: (repro.faults); always 0 when fault injection is off
    read_retries: int = 0
    channel_busy_us: List[float] = field(init=False)
    plane_busy_us: List[float] = field(init=False)

    def __post_init__(self) -> None:
        self.plane_ops = [0] * self.num_planes
        self.channel_busy_us = [0.0] * self.num_channels
        self.plane_busy_us = [0.0] * self.num_planes

    @property
    def total_ops(self) -> int:
        return sum(self.plane_ops)

    @property
    def copyback_ratio(self) -> float:
        """Fraction of GC page moves served by copy-back (vs. the
        controller path) — the paper's headline mechanism share."""
        moves = self.copybacks + self.interplane_copies
        return self.copybacks / moves if moves else 0.0

    def as_dict(self) -> dict:
        """Plain-python view (no numpy types), for traces/JSON/reports.

        Trace snapshots and result serialisation consume this instead
        of reaching into the accumulators directly.
        """
        return {
            "reads": self.reads,
            "programs": self.programs,
            "erases": self.erases,
            "copybacks": self.copybacks,
            "interplane_copies": self.interplane_copies,
            "skipped_pages": self.skipped_pages,
            "read_retries": self.read_retries,
            "total_ops": self.total_ops,
            "copyback_ratio": self.copyback_ratio,
            "plane_ops": [int(x) for x in self.plane_ops],
            "plane_busy_us": [float(x) for x in self.plane_busy_us],
            "channel_busy_us": [float(x) for x in self.channel_busy_us],
        }

    def reset(self) -> None:
        """Zero every count in place (references stay valid)."""
        self.reads = 0
        self.programs = 0
        self.erases = 0
        self.copybacks = 0
        self.interplane_copies = 0
        self.skipped_pages = 0
        self.read_retries = 0
        self.plane_ops[:] = [0] * self.num_planes
        self.plane_busy_us[:] = [0.0] * self.num_planes
        self.channel_busy_us[:] = [0.0] * self.num_channels
