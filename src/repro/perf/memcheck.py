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

``--paper-cell GB`` measures the other axis, device size: one Table I
cell of ``GB`` gigabytes, preconditioned to 45 %, a ``build`` replay,
then the closing full checks, reported as peak RSS per physical page.
For example, the sanitized full-size 8 GB cell of CI's smoke job::

    python -m repro.perf.memcheck --paper-cell 8 --ftl dloop --sanitize \\
        --requests 5000 --rss-cap-mb 200

Exit status 0 on success, 1 on a cap breach, a lost request, or an
event queue / in-flight count that did not return to zero; a paper
cell whose closing checks fail raises their error.
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
    if verbose:
        completed = ssd.stats.count
        rate = completed / wall if wall > 0 else 0.0
        print(
            f"memcheck: {completed} requests replayed in {wall:.1f}s "
            f"({rate:,.0f} req/s), queue_depth={queue_depth}, "
            f"peak RSS {peak_mb:.1f} MB (cap {rss_cap_mb} MB)"
        )
    return _check(
        ssd, num_requests, peak_mb, rss_cap_mb,
        "something on the streaming path is buffering O(trace) state",
    )


def run_paper_cell(
    capacity_gb: float,
    ftl: str,
    num_requests: int,
    rss_cap_mb: int,
    *,
    sanitize: bool = False,
    queue_depth: int = 32,
    seed: int | None = None,
    verbose: bool = True,
) -> int:
    """One Table I cell: ``scaled_geometry(capacity_gb, scale=1)``
    (1/32 of the 8 GB point is ``capacity_gb=0.25``),
    ``precondition(0.45)``, ``num_requests`` ``build`` requests over a
    quarter of the capacity streamed at ``queue_depth`` (``seed=None``
    keeps the workload's own seed), then ``finalize()`` when sanitized
    and ``verify()``.  Reports the process's peak RSS per physical page
    and the preconditioning wall-clock."""
    from repro.controller.device import SimulatedSSD
    from repro.experiments.config import scaled_geometry
    from repro.traces.stream import stream_io_requests
    from repro.traces.synthetic import make_workload

    geometry = scaled_geometry(capacity_gb, scale=1)
    ssd = SimulatedSSD(geometry, ftl=ftl, sanitize=sanitize)
    wall_start = time.perf_counter()  # dl: disable=DL101 — host-side wall metric
    ssd.precondition(0.45)
    precondition_s = time.perf_counter() - wall_start  # dl: disable=DL101 — host-side wall metric
    spec = make_workload("build", num_requests, geometry.capacity_bytes // 4, seed)
    ssd.run_stream(stream_io_requests(spec, geometry), queue_depth=queue_depth)
    if sanitize:
        ssd.sanitizer.finalize()
    ssd.verify()

    peak_mb = _peak_rss_kb() / 1024.0
    pages = geometry.num_physical_pages
    if verbose:
        print(
            f"memcheck: {ftl} at {capacity_gb:g} GB ({pages} physical pages"
            f"{', sanitized' if sanitize else ''}): precondition {precondition_s:.2f}s, "
            f"peak RSS {peak_mb:.1f} MB = {peak_mb * 2**20 / pages:.1f} B per physical "
            f"page (cap {rss_cap_mb} MB)"
        )
    return _check(ssd, num_requests, peak_mb, rss_cap_mb, "a per-page store or a full check grew")


def _check(ssd, num_requests: int, peak_mb: float, rss_cap_mb: int, cause: str) -> int:
    """Exit status of a drained replay: 1, with one FAIL line on stderr
    per finding, when a request was lost, the event queue or the
    in-flight count did not return to zero, or the peak RSS passed the
    cap (``cause`` says what a breach points at)."""
    failures = []
    completed = ssd.stats.count
    if completed != num_requests:
        failures.append(f"{completed} of {num_requests} requests completed")
    # Two heap events per request: the derived ``Engine.pending`` must
    # come back to zero over all of them, with nothing left in flight.
    if ssd.engine.pending != 0:
        failures.append(f"engine.pending is {ssd.engine.pending} after the replay drained")
    if ssd.controller.outstanding != 0:
        failures.append(
            f"{ssd.controller.outstanding} requests still outstanding after the replay"
        )
    if peak_mb > rss_cap_mb:
        failures.append(
            f"peak RSS {peak_mb:.1f} MB exceeds the {rss_cap_mb} MB cap: {cause}"
        )
    for failure in failures:
        print(f"memcheck: FAIL — {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="replay a large synthetic trace via the streaming path "
        "(or run one paper-scale cell) and assert a peak-RSS cap"
    )
    parser.add_argument("--requests", type=int, default=1_000_000)
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument("--rss-cap-mb", type=int, default=512)
    parser.add_argument(
        "--seed", type=int,
        help="workload seed (default: 0x57BEA8 for the replay, the build "
        "workload's own for a paper cell)",
    )
    parser.add_argument(
        "--paper-cell", type=float, metavar="GB",
        help="run one Table I cell of this capacity instead of the replay",
    )
    parser.add_argument("--ftl", default="dloop", help="paper cell FTL")
    parser.add_argument("--sanitize", action="store_true", help="paper cell runs sanitized")
    args = parser.parse_args(argv)
    seed = {} if args.seed is None else {"seed": args.seed}
    if args.paper_cell is not None:
        return run_paper_cell(
            args.paper_cell, args.ftl, args.requests, args.rss_cap_mb,
            sanitize=args.sanitize, queue_depth=args.queue_depth, **seed,
        )
    return run_memcheck(args.requests, args.queue_depth, args.rss_cap_mb, **seed)


if __name__ == "__main__":
    raise SystemExit(main())
