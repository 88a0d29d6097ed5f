"""Host I/O request model.

A host request addresses a contiguous run of logical pages.  The
controller splits it into single-page sub-requests (the paper always
aligns requests on page boundaries and pads the tail — Section III.B),
so the unit carried through the FTL is one logical page number (LPN).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class IoOp(enum.Enum):
    READ = "read"
    WRITE = "write"
    TRIM = "trim"


# Module globals for per-request code: an attribute read on the enum
# *class* goes through the metaclass (~0.1 us on CPython 3.11, against
# ~0.01 us for a global), and the controller tests the op of every request.
OP_WRITE = IoOp.WRITE
OP_TRIM = IoOp.TRIM


@dataclass(slots=True)
class IoRequest:
    """A page-aligned host request.

    Attributes
    ----------
    arrival_us:
        Simulated arrival time in microseconds.
    start_lpn:
        First logical page touched.
    page_count:
        Number of consecutive pages (>= 1).
    op:
        Read or write.
    completion_us:
        Filled in by the controller when the last sub-request finishes.
    error:
        Error status string when the device failed the request (e.g.
        out of space at end of life), else None.
    retries:
        Media retries (read re-reads, reprogram attempts) spent serving
        this request — nonzero only under fault injection.
    lost_pages:
        Pages whose data was lost to uncorrectable read errors while
        serving this request.
    tenant:
        Namespace id of the tenant that issued the request (multi-tenant
        admission, ``repro.tenancy``), or None for single-tenant runs.
    """

    arrival_us: float
    start_lpn: int
    page_count: int
    op: IoOp
    completion_us: float = field(default=-1.0, compare=False)
    error: str | None = field(default=None, compare=False)
    retries: int = field(default=0, compare=False)
    lost_pages: int = field(default=0, compare=False)
    tenant: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.page_count < 1:
            raise ValueError(f"page_count must be >= 1, got {self.page_count}")
        if self.start_lpn < 0:
            raise ValueError(f"start_lpn must be >= 0, got {self.start_lpn}")
        if self.arrival_us < 0:
            raise ValueError(f"arrival_us must be >= 0, got {self.arrival_us}")

    @property
    def is_write(self) -> bool:
        return self.op is IoOp.WRITE

    @property
    def response_us(self) -> float:
        """Response time; valid only after completion."""
        if self.completion_us < 0:
            raise RuntimeError("request has not completed")
        return self.completion_us - self.arrival_us
