"""Per-tenant accounting: response-time stats and tail-latency SLOs.

Each tenant gets its own O(1)-memory
:class:`~repro.metrics.streaming.StreamingRequestStats` behind the same
``observe()`` seam the controller uses for the device-wide stats, plus
an optional p99 SLO target with a per-request violation counter — the
online proxy for "would this tenant's p99 have blown its budget".

The router attaches as a :attr:`Controller.on_complete` callback, so
the controller's hot path is untouched when tenancy is off (the
callback list is empty) and routing costs one dict lookup per request
when it is on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.metrics.streaming import StreamingRequestStats
from repro.obs.tracebus import BUS
from repro.sim.request import OP_WRITE, IoRequest
from repro.tenancy.namespace import Namespace


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    if not values:
        return 1.0
    total = float(sum(values))
    if total == 0.0:
        return 1.0
    squares = float(sum(v * v for v in values))
    return total * total / (len(values) * squares)


class TenantStats:
    """One tenant's completion-side accounting."""

    __slots__ = ("namespace", "stats", "slo_p99_us", "slo_violations",
                 "completed_pages", "failed_requests")

    def __init__(self, namespace: Namespace,
                 slo_p99_us: Optional[float] = None):
        self.namespace = namespace
        self.stats = StreamingRequestStats()
        self.slo_p99_us = slo_p99_us
        self.slo_violations = 0
        self.completed_pages = 0
        self.failed_requests = 0

    def summary(self) -> dict:
        digest = self.stats.summary()
        digest["tenant"] = self.namespace.name
        digest["nsid"] = self.namespace.nsid
        digest["completed_pages"] = self.completed_pages
        digest["failed_requests"] = self.failed_requests
        digest["slo_p99_us"] = self.slo_p99_us
        digest["slo_violations"] = self.slo_violations
        return digest


class TenantStatsRouter:
    """Fan completions out to per-tenant stats by the request's nsid."""

    def __init__(self, lanes: Sequence[TenantStats]):
        self.lanes: List[TenantStats] = list(lanes)
        self._by_nsid: Dict[int, TenantStats] = {
            lane.namespace.nsid: lane for lane in self.lanes
        }

    def attach(self, controller) -> None:
        controller.on_complete.append(self.on_complete)
        controller.tenants = self

    def detach(self, controller) -> None:
        controller.on_complete.remove(self.on_complete)
        controller.tenants = None

    def on_complete(self, request: IoRequest) -> None:
        lane = self._by_nsid.get(request.tenant)
        if lane is None:
            return
        response = request.completion_us - request.arrival_us
        is_write = request.op is OP_WRITE
        if request.error is not None:
            lane.failed_requests += 1
            lane.stats.observe_error(response, is_write)
            return
        lane.stats.observe(response, is_write)
        lane.completed_pages += request.page_count
        slo = lane.slo_p99_us
        if slo is not None and response > slo:
            lane.slo_violations += 1
            if BUS.enabled:
                BUS.emit(
                    "tenant", "slo_violation", request.arrival_us, response,
                    {"tenant": lane.namespace.nsid,
                     "response_us": response, "target_us": slo},
                    "host:0", "X",
                )

    def completed_page_shares(self) -> List[float]:
        """Each tenant's fraction of all completed pages (lane order)."""
        total = sum(lane.completed_pages for lane in self.lanes)
        if total == 0:
            return [0.0] * len(self.lanes)
        return [lane.completed_pages / total for lane in self.lanes]

    def summaries(self) -> List[dict]:
        return [lane.summary() for lane in self.lanes]
