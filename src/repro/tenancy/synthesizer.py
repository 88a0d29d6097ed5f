"""Million-user traffic synthesis over the tenant namespaces.

Scales PR 5's chunk-invariant seeded streams to a service population:
tenant popularity follows a Zipf law over declaration rank (a handful
of tenants aggregate most of the users, a long tail barely shows up),
each tenant runs its own workload persona from
:mod:`repro.traces.synthetic` confined to its namespace extent, and a
deterministic diurnal warp modulates per-tenant arrival rates so
bursts from different tenants collide the way peak-hour traffic does.

Every random choice folds out of one base seed (FNV-1a over the tenant
name, finalized with splitmix64 — :func:`repro.seeding.fold_seed`), so
adding a tenant never perturbs another tenant's stream, and the same
spec replays byte-identically.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.seeding import fold_seed
from repro.sim.request import IoRequest
from repro.traces.model import TraceRequest, WorkloadSpec
from repro.traces.stream import PageExtent, stream_io_requests
from repro.traces.synthetic import make_workload
from repro.tenancy.namespace import Namespace

#: One simulated "day" of the diurnal cycle, compressed (us).  Real
#: diurnal periods would dwarf any simulated trace; what matters is
#: that per-tenant peaks exist and are phase-shifted, not the absolute
#: period.
DEFAULT_DIURNAL_PERIOD_US = 10_000_000.0

#: Generation block of one tenant's stream.  A fleet holds one block per
#: tenant at once, so it is an eighth of the single-stream default
#: (the trace is bit-identical for any block size): three tenants then
#: keep ~0.6 MB resident instead of ~4.7 MB.
TENANT_CHUNK_REQUESTS = 1024


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the service: persona, fair-share weight, SLO."""

    name: str
    persona: str = "financial1"
    weight: float = 1.0
    #: p99 response-time target in ms (None = no SLO tracked)
    slo_p99_ms: Optional[float] = None
    #: namespace share of the LPN space (None = equal split)
    share: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0.0:
            raise ValueError(f"tenant weight must be positive, got {self.weight}")
        if self.slo_p99_ms is not None and self.slo_p99_ms <= 0.0:
            raise ValueError("slo_p99_ms must be positive")
        if self.share is not None and self.share <= 0.0:
            raise ValueError("share must be positive")


def parse_tenants_spec(spec: str, default_persona: str = "financial1") -> Tuple[TenantSpec, ...]:
    """Parse the CLI ``--tenants`` argument.

    Either a bare count (``"3"`` — equal-weight tenants of the default
    persona) or comma-separated ``name=persona[:weight[:slo_ms]]``
    entries, e.g. ``"olt=financial1:2:8,web=webserver:1"``.
    """
    text = spec.strip()
    if not text:
        raise ValueError("--tenants spec is empty")
    if text.isdigit():
        count = int(text)
        if count < 1:
            raise ValueError("--tenants count must be >= 1")
        return tuple(
            TenantSpec(name=f"tenant{i}", persona=default_persona)
            for i in range(count)
        )
    tenants: List[TenantSpec] = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, rest = entry.partition("=")
        if not rest:
            tenants.append(TenantSpec(name=name, persona=default_persona))
            continue
        parts = rest.split(":")
        persona = parts[0] or default_persona
        weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        slo = float(parts[2]) if len(parts) > 2 and parts[2] else None
        tenants.append(
            TenantSpec(name=name, persona=persona, weight=weight, slo_p99_ms=slo)
        )
    if not tenants:
        raise ValueError(f"--tenants spec {spec!r} has no tenants")
    return tuple(tenants)


def _diurnal_time_map(
    period_us: float, amplitude: float, phase_rad: float
) -> Optional[Callable[[float], float]]:
    """The diurnal map ``t -> t'`` (None when ``amplitude`` is 0: identity).

    ``math.cos`` per arrival, on purpose: numpy's vector cosine is not
    bit-equal to libm's, so a chunk-wide ``np.cos`` would move arrivals
    in their last digits and with them every fingerprint downstream.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    if period_us <= 0.0:
        raise ValueError("period_us must be positive")
    if amplitude == 0.0:
        return None
    scale = amplitude * period_us / (2.0 * math.pi)
    omega = 2.0 * math.pi / period_us
    base = scale * (1.0 - math.cos(phase_rad))
    cos = math.cos

    def warp(t: float) -> float:
        return t + scale * (1.0 - cos(omega * t + phase_rad)) - base

    return warp


def diurnal_warp(
    trace: Iterator[TraceRequest],
    period_us: float,
    amplitude: float,
    phase_rad: float = 0.0,
) -> Iterator[TraceRequest]:
    """Modulate arrival density with a smooth diurnal cycle.

    Applies the monotone time map ``t' = t + (a*P/2pi) * (1 - cos(2pi
    t/P + phi) )`` whose derivative ``1 + a*sin(...)`` stays positive
    for ``a < 1``: arrivals bunch up on the rising half of the cycle
    (rate boost up to ``1/(1-a)``) and thin out on the falling half.
    A pure per-item map, so chunk invariance of the underlying stream
    is preserved and the warp is trivially deterministic.
    """
    warp = _diurnal_time_map(period_us, amplitude, phase_rad)
    if warp is None:
        yield from trace
        return
    for r in trace:
        yield dataclasses.replace(r, arrival_us=warp(r.arrival_us))


def _warp_arrivals(
    requests: Iterator[IoRequest], warp: Callable[[float], float]
) -> Iterator[IoRequest]:
    """Apply a time map to each request's arrival, in place."""
    for request in requests:
        request.arrival_us = warp(request.arrival_us)
        yield request


@dataclass(frozen=True)
class TrafficModel:
    """A population of tenants plus the knobs shaping their traffic."""

    tenants: Tuple[TenantSpec, ...]
    #: total requests across all tenants (split by popularity)
    total_requests: int = 12_000
    #: Zipf exponent of tenant popularity over declaration rank
    popularity_theta: float = 1.0
    diurnal_period_us: float = DEFAULT_DIURNAL_PERIOD_US
    diurnal_amplitude: float = 0.6
    #: fraction of each namespace extent the tenant's footprint covers
    footprint_fill: float = 0.5
    base_seed: int = 0x7E7A

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a TrafficModel needs at least one tenant")
        if self.total_requests < len(self.tenants):
            raise ValueError("total_requests must cover every tenant")
        if not 0.0 < self.footprint_fill <= 1.0:
            raise ValueError("footprint_fill must be in (0, 1]")

    def popularity(self) -> List[float]:
        """Zipfian popularity by declaration rank (sums to 1)."""
        weights = [1.0 / (rank + 1) ** self.popularity_theta
                   for rank in range(len(self.tenants))]
        total = sum(weights)
        return [w / total for w in weights]

    def tenant_request_counts(self) -> List[int]:
        return [max(1, round(self.total_requests * p))
                for p in self.popularity()]

    def tenant_seed(self, index: int) -> int:
        return fold_seed(self.base_seed, self.tenants[index].name)

    def tenant_workload(self, index: int, extent_bytes: int) -> WorkloadSpec:
        """The tenant's persona spec, confined to its namespace extent.

        The persona's footprint/chunk/align are rescaled so the stream
        generator's clamps never place a byte outside the extent, and
        the request rate is popularity-scaled so every tenant's trace
        spans a comparable wall-clock window (big tenants are busier,
        not longer).
        """
        spec = self.tenants[index]
        count = self.tenant_request_counts()[index]
        base = make_workload(spec.persona, num_requests=count,
                             seed=self.tenant_seed(index))
        footprint = max(1, int(extent_bytes * self.footprint_fill))
        chunk = min(base.chunk_bytes, footprint)
        align = min(base.align_bytes, chunk)
        mean_share = 1.0 / len(self.tenants)
        rate_scale = self.popularity()[index] / mean_share
        return dataclasses.replace(
            base,
            name=f"{spec.name}:{base.name}",
            footprint_bytes=footprint,
            chunk_bytes=chunk,
            align_bytes=align,
            request_rate_per_s=base.request_rate_per_s * rate_scale,
        )

    def tenant_stream(self, index: int, namespace: Namespace,
                      page_size: int) -> Iterator[IoRequest]:
        """The tenant's namespace-local, time-ordered request stream.

        Each :class:`IoRequest` is built once, by the fused persona
        generator with the namespace extent standing in for the device
        (the footprint lies inside the extent, so its wrap into the
        capacity is the identity and its clamp is the extent edge); the
        diurnal map then moves ``arrival_us`` in place.
        """
        extent_bytes = namespace.num_lpns * page_size
        workload = self.tenant_workload(index, extent_bytes)
        phase = 2.0 * math.pi * index / len(self.tenants)
        warp = _diurnal_time_map(
            self.diurnal_period_us, self.diurnal_amplitude, phase
        )
        requests = stream_io_requests(
            workload, PageExtent(extent_bytes, page_size), TENANT_CHUNK_REQUESTS
        )
        return requests if warp is None else _warp_arrivals(requests, warp)
