"""Closed-loop (fixed queue-depth) workload driving.

The paper replays open-loop traces (arrivals from timestamps) and
reports response time.  The complementary standard methodology is
closed-loop: keep exactly ``iodepth`` requests outstanding, submitting
the next the moment one completes — which measures sustainable
*throughput* (IOPS / MB/s) instead of latency under a fixed offered
load.

The driver feeds off any iterator of ``(lpn, page_count, is_write)``
tuples; helpers build such streams from a `WorkloadSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from repro.sim.request import IoOp, IoRequest

Op = Tuple[int, int, bool]  # (start_lpn, page_count, is_write)


@dataclass
class ClosedLoopResult:
    completed: int
    duration_us: float
    pages_read: int
    pages_written: int

    @property
    def iops(self) -> float:
        return self.completed / (self.duration_us / 1e6) if self.duration_us > 0 else 0.0

    def bandwidth_mb_s(self, page_size: int) -> float:
        total_bytes = (self.pages_read + self.pages_written) * page_size
        seconds = self.duration_us / 1e6
        return total_bytes / (1024 * 1024) / seconds if seconds > 0 else 0.0

    def row(self, page_size: Optional[int] = None) -> dict:
        row = {"completed": self.completed, "IOPS": round(self.iops, 1)}
        if page_size is not None:
            row["MB/s"] = round(self.bandwidth_mb_s(page_size), 2)
        return row


class ClosedLoopDriver:
    """Keeps ``iodepth`` requests outstanding against a SimulatedSSD."""

    def __init__(self, ssd, ops: Iterable[Op], *, iodepth: int = 8):
        if iodepth < 1:
            raise ValueError("iodepth must be >= 1")
        self.ssd = ssd
        self.iodepth = iodepth
        self._ops: Iterator[Op] = iter(ops)
        self._completed = 0
        self._exhausted = False
        ssd.controller.on_complete.append(self._request_done)

    # ---- plumbing ---------------------------------------------------------

    def _submit_next(self) -> bool:
        try:
            lpn, count, is_write = next(self._ops)
        except StopIteration:
            self._exhausted = True
            return False
        op = IoOp.WRITE if is_write else IoOp.READ
        arrival = max(self.ssd.engine.now, 0.0)
        self.ssd.submit(IoRequest(arrival, lpn, count, op))
        return True

    def _request_done(self, request: IoRequest) -> None:
        self._completed += 1
        if not self._exhausted:
            self._submit_next()

    # ---- entry point ---------------------------------------------------------

    def run(self) -> ClosedLoopResult:
        for _ in range(self.iodepth):
            if not self._submit_next():
                break
        self.ssd.engine.run()
        stats = self.ssd.stats
        duration = self.ssd.engine.now
        return ClosedLoopResult(
            completed=self._completed,
            duration_us=duration,
            pages_read=stats.pages_read,
            pages_written=stats.pages_written,
        )
