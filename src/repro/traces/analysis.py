"""Workload characterisation beyond Table II's basic statistics.

The paper picks traces by qualitative character ("random-write-
dominant", "significant temporal locality", "very intensive").  This
module quantifies those characters so synthetic stand-ins can be
validated against them and new traces can be classified:

* **footprint** — distinct bytes touched;
* **sequentiality** — fraction of requests continuing the previous one;
* **update distance** — requests between successive writes to the same
  page (temporal locality of updates — what a CMT or hot/cold split
  exploits);
* **hot-set concentration** — the fraction of accesses landing in the
  most popular x% of touched chunks (Zipf-ness);
* **read/write interleaving and arrival burstiness.**
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from repro.traces.model import KB, TraceRequest


@dataclass(frozen=True)
class WorkloadCharacter:
    num_requests: int
    footprint_bytes: int
    write_fraction: float
    sequential_fraction: float
    mean_update_distance: float
    median_update_distance: float
    hot10_share: float
    hot1_share: float
    burstiness_cv: float

    def row(self) -> dict:
        return {
            "requests": self.num_requests,
            "footprint_MB": round(self.footprint_bytes / (1024 * 1024), 1),
            "write_%": round(100 * self.write_fraction, 1),
            "seq_%": round(100 * self.sequential_fraction, 1),
            "upd_dist_med": round(self.median_update_distance, 0),
            "hot10_%": round(100 * self.hot10_share, 1),
            "hot1_%": round(100 * self.hot1_share, 1),
            "burst_cv": round(self.burstiness_cv, 2),
        }


def characterize(trace: Iterable[TraceRequest], *, chunk_bytes: int = 64 * KB) -> WorkloadCharacter:
    """Compute the workload character of a trace."""
    requests: List[TraceRequest] = list(trace)
    if not requests:
        raise ValueError("empty trace")
    if chunk_bytes < 1:
        raise ValueError("chunk_bytes must be >= 1")

    writes = sum(1 for r in requests if r.is_write)

    # footprint: union of touched chunk-granular ranges (chunk=1 page is exact)
    touched = set()
    for r in requests:
        first = r.offset_bytes // chunk_bytes
        last = (r.end_bytes - 1) // chunk_bytes
        touched.update(range(first, last + 1))
    footprint = len(touched) * chunk_bytes

    sequential = sum(
        1 for prev, cur in zip(requests, requests[1:]) if cur.offset_bytes == prev.end_bytes
    )

    # update distance: gap (in request index) between writes to the same chunk
    last_write_at: Dict[int, int] = {}
    distances: List[int] = []
    for index, r in enumerate(requests):
        if not r.is_write:
            continue
        chunk = r.offset_bytes // chunk_bytes
        if chunk in last_write_at:
            distances.append(index - last_write_at[chunk])
        last_write_at[chunk] = index
    mean_distance = float(np.mean(distances)) if distances else float("inf")
    median_distance = float(np.median(distances)) if distances else float("inf")

    # hot-set concentration over chunks
    chunks = np.array([r.offset_bytes // chunk_bytes for r in requests])
    _, counts = np.unique(chunks, return_counts=True)
    counts = np.sort(counts)[::-1]
    total = counts.sum()

    def share(fraction: float) -> float:
        top = max(1, int(np.ceil(len(counts) * fraction)))
        return float(counts[:top].sum()) / total

    # burstiness: coefficient of variation of interarrivals (1.0 = Poisson)
    arrivals = np.array([r.arrival_us for r in requests], dtype=np.float64)
    gaps = np.diff(np.sort(arrivals))
    if len(gaps) and gaps.mean() > 0:
        burstiness = float(gaps.std() / gaps.mean())
    else:
        burstiness = 0.0

    return WorkloadCharacter(
        num_requests=len(requests),
        footprint_bytes=footprint,
        write_fraction=writes / len(requests),
        sequential_fraction=sequential / max(1, len(requests) - 1),
        mean_update_distance=mean_distance,
        median_update_distance=median_distance,
        hot10_share=share(0.10),
        hot1_share=share(0.01),
        burstiness_cv=burstiness,
    )
