"""Bounded-memory proof for the streaming replay path.

``python -m repro.perf.memcheck`` replays a multi-million-request
synthetic trace through the full stack (lazy generation → streaming
admission window → O(1) streaming stats) in a **fresh process** and
asserts the peak RSS stays under a cap.  Run as its own process so the
high-water mark measures this replay alone, not whatever allocations a
larger suite made first.

This is the stream step of CI's ``smoke`` job: if anyone reintroduces
an O(trace) buffer anywhere on the path (generator, parser, controller
admission, latency accounting), a 1M-request replay blows straight
through the cap and the job fails.

Exit status 0 on success, 1 on a cap breach, a lost request, or an
event queue / in-flight count that did not return to zero.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from repro.flash.geometry import SSDGeometry


def bench_geometry() -> SSDGeometry:
    """Small fixed geometry of the replay (and of the golden fingerprints).

    8 planes over 4 channels, 20 Ki logical pages: big enough for
    realistic GC behaviour, small enough that construction cost does
    not dominate the measurement.
    """
    return SSDGeometry(
        channels=4,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=80,
        pages_per_block=32,
        page_size=2048,
        extra_blocks_percent=5.0,
    )


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (ru_maxrss is KiB on Linux, bytes on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        rss //= 1024
    return int(rss)


def run_memcheck(
    num_requests: int,
    queue_depth: int | None,
    rss_cap_mb: int,
    *,
    seed: int = 0x57BEA8,
    verbose: bool = True,
) -> int:
    from repro.controller.device import SimulatedSSD
    from repro.flash.timing import TimingParams
    from repro.traces.model import KB, SizeMix, WorkloadSpec
    from repro.traces.stream import stream_io_requests

    geometry = bench_geometry()
    spec = WorkloadSpec(
        name="memcheck",
        num_requests=num_requests,
        write_fraction=0.7,
        request_rate_per_s=50_000.0,
        size_mix=SizeMix((2 * KB, 4 * KB, 8 * KB), (0.5, 0.3, 0.2)),
        footprint_bytes=int(geometry.capacity_bytes * 0.55),
        sequential_fraction=0.2,
        zipf_theta=0.9,
        chunk_bytes=64 * KB,
        seed=seed,
    )
    ssd = SimulatedSSD(geometry, TimingParams(), ftl="dloop")
    ssd.precondition(0.6)

    wall_start = time.perf_counter()  # dl: disable=DL101 — host-side wall metric
    ssd.run_stream(stream_io_requests(spec, geometry), queue_depth=queue_depth)
    wall = time.perf_counter() - wall_start  # dl: disable=DL101 — host-side wall metric

    peak_mb = _peak_rss_kb() / 1024.0
    completed = ssd.stats.count
    if verbose:
        rate = completed / wall if wall > 0 else 0.0
        print(
            f"memcheck: {completed} requests replayed in {wall:.1f}s "
            f"({rate:,.0f} req/s), queue_depth={queue_depth}, "
            f"peak RSS {peak_mb:.1f} MB (cap {rss_cap_mb} MB)"
        )
    status = 0
    if completed != num_requests:
        print(
            f"memcheck: FAIL — {completed} of {num_requests} requests completed",
            file=sys.stderr,
        )
        status = 1
    # Two heap events per request: the derived ``Engine.pending`` must
    # come back to zero over all of them, with nothing left in flight.
    if ssd.engine.pending != 0:
        print(
            f"memcheck: FAIL — engine.pending is {ssd.engine.pending} after the replay drained",
            file=sys.stderr,
        )
        status = 1
    if ssd.controller.outstanding != 0:
        print(
            f"memcheck: FAIL — {ssd.controller.outstanding} requests still outstanding after the replay",
            file=sys.stderr,
        )
        status = 1
    if peak_mb > rss_cap_mb:
        print(
            f"memcheck: FAIL — peak RSS {peak_mb:.1f} MB exceeds the "
            f"{rss_cap_mb} MB cap: something on the streaming path is "
            f"buffering O(trace) state",
            file=sys.stderr,
        )
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="replay a large synthetic trace via the streaming path "
        "and assert a peak-RSS cap"
    )
    parser.add_argument("--requests", type=int, default=1_000_000)
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument("--rss-cap-mb", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0x57BEA8)
    args = parser.parse_args(argv)
    return run_memcheck(
        args.requests, args.queue_depth, args.rss_cap_mb, seed=args.seed
    )


if __name__ == "__main__":
    raise SystemExit(main())
