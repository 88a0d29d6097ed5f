"""Request-scale plane parallelism: the paper's title claim, per run.

DLOOP's premise is that a multi-page request spreads over planes that
work at the same time.  :class:`ParallelismProbe` measures exactly that
from the TraceBus: the share of multi-page requests whose flash ops
overlap in simulated time on different planes.  Subscribe it for the
measured run (``run_simulation(probes=[probe])`` does) and read
:meth:`ParallelismProbe.result` afterwards.  It only reads events, so
attaching it leaves every simulated number bit-identical.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.obs.schema import (
    CAT_FLASH,
    CAT_HOST,
    EV_FLASH_COPY_BACK,
    EV_FLASH_ERASE,
    EV_FLASH_PROGRAM,
    EV_FLASH_READ,
    EV_IO_BEGIN,
    EV_IO_DISPATCH,
)
from repro.obs.tracebus import TraceEvent

_FLASH_OPS = (EV_FLASH_READ, EV_FLASH_PROGRAM, EV_FLASH_COPY_BACK, EV_FLASH_ERASE)
#: flash ops kept per request; a request's further ops are not swept
MAX_TRACKED_OPS = 4096


class Parallelism(NamedTuple):
    """``parallel / evaluable``, or ``None`` when no request was evaluable."""

    score: Optional[float]
    evaluable: int
    parallel: int


class ParallelismProbe:
    """Do a multi-page request's flash ops overlap across planes?

    The controller brackets every request's synchronous dispatch with
    ``host/io_begin`` .. ``host/io_dispatch``, and the simulator is
    single-threaded, so every flash op emitted in between serves that
    request (including any GC it triggered).  A request of two or more
    pages is *evaluable* when its service needed at least two flash ops,
    and *parallel* when two of those ops on different planes overlap in
    simulated time.  At most :data:`MAX_TRACKED_OPS` ops are kept per
    request.
    """

    def __init__(self) -> None:
        self.evaluable = 0
        self.parallel = 0
        self._active = False
        self._ops: List[Tuple[float, float, int]] = []

    def __call__(self, event: TraceEvent) -> None:
        category = event.category
        if category == CAT_HOST:
            if event.name == EV_IO_BEGIN:
                self._active = event.args["pages"] >= 2
                self._ops.clear()
            elif event.name == EV_IO_DISPATCH and self._active:
                self._active = False
                self._finish()
        elif self._active and category == CAT_FLASH and event.name in _FLASH_OPS:
            if len(self._ops) < MAX_TRACKED_OPS:
                start = event.ts_us
                self._ops.append((start, start + event.duration_us, event.args["plane"]))

    def _finish(self) -> None:
        ops = self._ops
        if len(ops) < 2:
            return
        self.evaluable += 1
        # Sweep in start order; an op overlaps a different plane's op iff
        # it starts before the latest end seen on some other plane.  Track
        # the two best (max-end) intervals on distinct planes so the
        # check stays O(1) per op.
        ops.sort()
        best_end, best_plane = -1.0, None
        second_end = -1.0  # max end among planes != best_plane
        for start, end, plane in ops:
            limit = second_end if plane == best_plane else best_end
            if start < limit:
                self.parallel += 1
                return
            if plane == best_plane:
                best_end = max(best_end, end)
            elif end >= best_end:
                if best_plane is not None:
                    second_end = max(second_end, best_end)
                best_end, best_plane = end, plane
            else:
                second_end = max(second_end, end)

    def result(self) -> Parallelism:
        score = self.parallel / self.evaluable if self.evaluable else None
        return Parallelism(score, self.evaluable, self.parallel)
