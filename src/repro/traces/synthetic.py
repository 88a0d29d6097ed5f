"""Synthetic stand-ins for the paper's five enterprise traces.

The real SPC/SNIA traces (Financial1/2, TPC-C, Exchange, Build —
Table II) are not redistributable, so each is replaced by a seeded
generator calibrated to its published fingerprint:

============ ======== ========== ========== =================================
trace        write %  mean size  character  source of calibration
============ ======== ========== ========== =================================
Financial1   ~63 %    3 KB       random-write-dominant OLTP (Section V.A)
Financial2   ~18 %    2 KB       random-read-dominant OLTP
TPC-C        ~61 %    8 KB       very intensive, mostly random
Exchange     ~46 %    12 KB      mail server, mixed, moderate locality
Build        ~84 %    8 KB       build server, sequential-leaning writes
============ ======== ========== ========== =================================

Mechanics: Poisson arrivals at the spec's rate; addresses drawn from a
Zipfian distribution over shuffled fixed-size chunks of the footprint
(temporal locality without spatial adjacency of hot data), with a
configurable fraction of sequential continuation; request sizes from a
discrete mixture matching the published mean.  A dedicated sequential
cursor advances only on sequential continuations and wraps at the
footprint, so the sequential stream is a genuine contiguous run rather
than a continuation of whatever the last random request touched.

Generation itself lives in :mod:`repro.traces.stream` as a chunked,
O(chunk)-memory iterator; :func:`generate` materializes it, so the
streamed and materialized paths are bit-identical by construction.
"""

from __future__ import annotations

from typing import List

from repro.traces.model import KB, SizeMix, TraceRequest, WorkloadSpec
from repro.traces.stream import stream_workload

MB = 1024 * KB


def generate(spec: WorkloadSpec) -> List[TraceRequest]:
    """Produce a reproducible trace matching ``spec``.

    Equivalent to ``list(stream_workload(spec))`` — for traces too
    large to hold in memory, iterate :func:`repro.traces.stream.
    stream_workload` directly instead.
    """
    return list(stream_workload(spec))


# ---- calibrated workloads -----------------------------------------------------


def financial1(num_requests: int = 20000, footprint_bytes: int = 96 * MB, seed: int = 42) -> WorkloadSpec:
    """OLTP at a large financial institution: random-write-dominant."""
    return WorkloadSpec(
        name="financial1",
        num_requests=num_requests,
        write_fraction=0.63,
        request_rate_per_s=1800.0,
        size_mix=SizeMix((2 * KB, 4 * KB), (0.5, 0.5)),  # mean 3 KB
        footprint_bytes=footprint_bytes,
        sequential_fraction=0.05,
        zipf_theta=0.95,
        chunk_bytes=128 * KB,
        seed=seed,
    )


def financial2(num_requests: int = 20000, footprint_bytes: int = 96 * MB, seed: int = 43) -> WorkloadSpec:
    """OLTP, second institution: random-read-dominant."""
    return WorkloadSpec(
        name="financial2",
        num_requests=num_requests,
        write_fraction=0.18,
        request_rate_per_s=2400.0,
        size_mix=SizeMix.fixed(2 * KB),
        footprint_bytes=footprint_bytes,
        sequential_fraction=0.05,
        zipf_theta=1.0,
        chunk_bytes=128 * KB,
        seed=seed,
    )


def tpcc(num_requests: int = 20000, footprint_bytes: int = 96 * MB, seed: int = 44) -> WorkloadSpec:
    """SQL Server under TPC-C: very intensive, mostly random."""
    return WorkloadSpec(
        name="tpcc",
        num_requests=num_requests,
        write_fraction=0.61,
        request_rate_per_s=1500.0,
        size_mix=SizeMix.fixed(8 * KB),
        footprint_bytes=footprint_bytes,
        sequential_fraction=0.02,
        zipf_theta=0.6,  # weak locality: random requests defeat the CMT
        chunk_bytes=128 * KB,
        seed=seed,
    )


def exchange(num_requests: int = 20000, footprint_bytes: int = 96 * MB, seed: int = 45) -> WorkloadSpec:
    """Microsoft Exchange mail server: mixed read/write, moderate sizes."""
    return WorkloadSpec(
        name="exchange",
        num_requests=num_requests,
        write_fraction=0.46,
        request_rate_per_s=550.0,
        size_mix=SizeMix((8 * KB, 16 * KB), (0.5, 0.5)),  # mean 12 KB
        footprint_bytes=footprint_bytes,
        sequential_fraction=0.15,
        zipf_theta=0.9,
        chunk_bytes=128 * KB,
        seed=seed,
    )


def build_server(num_requests: int = 20000, footprint_bytes: int = 96 * MB, seed: int = 46) -> WorkloadSpec:
    """Windows build server: write-heavy with sequential runs."""
    return WorkloadSpec(
        name="build",
        num_requests=num_requests,
        write_fraction=0.84,
        request_rate_per_s=750.0,
        size_mix=SizeMix.fixed(8 * KB),
        footprint_bytes=footprint_bytes,
        sequential_fraction=0.45,
        zipf_theta=0.8,
        chunk_bytes=128 * KB,
        seed=seed,
    )


_FACTORIES = {
    "financial1": financial1,
    "financial2": financial2,
    "tpcc": tpcc,
    "exchange": exchange,
    "build": build_server,
}

PAPER_TRACE_NAMES = ("financial1", "financial2", "tpcc", "exchange", "build")


def make_workload(name: str, num_requests: int = 20000, footprint_bytes: int = 96 * MB, seed: int | None = None) -> WorkloadSpec:
    """Calibrated spec by trace name (see :data:`PAPER_TRACE_NAMES`)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; available: {sorted(_FACTORIES)}") from None
    if seed is None:
        return factory(num_requests, footprint_bytes)
    return factory(num_requests, footprint_bytes, seed)


# ---- additional archetypes (beyond the paper's five) ---------------------------


def web_server(num_requests: int = 20000, footprint_bytes: int = 96 * MB, seed: int = 47) -> WorkloadSpec:
    """Static-content web server: read-dominant with a strong hot set."""
    return WorkloadSpec(
        name="webserver",
        num_requests=num_requests,
        write_fraction=0.05,
        request_rate_per_s=3000.0,
        size_mix=SizeMix((4 * KB, 16 * KB), (0.7, 0.3)),
        footprint_bytes=footprint_bytes,
        sequential_fraction=0.1,
        zipf_theta=1.1,
        chunk_bytes=128 * KB,
        seed=seed,
    )


def streaming(num_requests: int = 20000, footprint_bytes: int = 96 * MB, seed: int = 48) -> WorkloadSpec:
    """Video-on-demand: large, overwhelmingly sequential reads."""
    return WorkloadSpec(
        name="streaming",
        num_requests=num_requests,
        write_fraction=0.02,
        request_rate_per_s=900.0,
        size_mix=SizeMix.fixed(64 * KB),
        footprint_bytes=footprint_bytes,
        sequential_fraction=0.9,
        zipf_theta=0.5,
        chunk_bytes=512 * KB,
        seed=seed,
    )


def boot_storm(num_requests: int = 20000, footprint_bytes: int = 96 * MB, seed: int = 49) -> WorkloadSpec:
    """VDI boot storm: intense small random reads with a shared hot image."""
    return WorkloadSpec(
        name="bootstorm",
        num_requests=num_requests,
        write_fraction=0.12,
        request_rate_per_s=6000.0,
        size_mix=SizeMix((4 * KB, 8 * KB), (0.8, 0.2)),
        footprint_bytes=footprint_bytes,
        sequential_fraction=0.05,
        zipf_theta=1.2,
        chunk_bytes=128 * KB,
        seed=seed,
    )


_FACTORIES.update(
    webserver=web_server,
    streaming=streaming,
    bootstorm=boot_storm,
)

#: Archetypes beyond the paper's Table II set.
EXTRA_TRACE_NAMES = ("webserver", "streaming", "bootstorm")
