"""Streaming workload pipeline: O(chunk)-memory trace generation.

A materialized trace is O(trace) RAM, which caps replay size long
before the paper's multi-million-request evaluations (Section V).  This
module is the bounded-memory front end to ``SimulatedSSD.run_stream()``
(``run()`` admits a list the same way, once sorted):

* :func:`stream_workload` — the synthetic generator as a lazy iterator.
  Random draws happen in fixed-size numpy blocks, so memory is
  O(chunk_requests), and the output is **bit-identical for a given seed
  regardless of chunk size**: each random variable (arrivals, sizes,
  op mix, Zipf ranks, intra-chunk offsets, sequential flags) owns an
  independent child stream spawned from ``SeedSequence(spec.seed)``,
  and every numpy distribution used here consumes its stream strictly
  element-by-element.  ``repro.traces.synthetic.generate`` is now a
  thin ``list(...)`` over this generator, so the streamed and
  materialized paths cannot drift apart.

* :func:`io_requests` — lazily maps byte-addressed
  :class:`~repro.traces.model.TraceRequest` items onto page-aligned
  :class:`~repro.sim.request.IoRequest` items: the one page alignment
  every replay in ``repro.experiments.runner`` goes through.

The sequential-continuation model fixes a long-standing generator bug:
a dedicated sequential cursor advances *only* on sequential requests
(so a sequential stream is not teleported around by interleaved random
requests) and wraps at the footprint instead of silently degrading
near-limit sequential requests to random ones (see docs/workloads.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Union

import numpy as np

from repro.obs.tracebus import BUS
from repro.sim.request import IoOp, IoRequest
from repro.traces.model import TraceRequest, WorkloadSpec
from repro.traces.zipf import ZipfSampler

if TYPE_CHECKING:
    from repro.flash.geometry import SSDGeometry

#: Default generation block: large enough to amortise numpy call
#: overhead, small enough that resident state stays in the kilobytes.
DEFAULT_CHUNK_REQUESTS = 8192


class PageExtent(NamedTuple):
    """A byte extent split into pages: all that the page-aligning
    functions below read of a geometry.  Lets a slice of the device (a
    tenant namespace) stand where the whole ``SSDGeometry`` usually does.
    """

    capacity_bytes: int
    page_size: int


def stream_workload(
    spec: WorkloadSpec, chunk_requests: int = DEFAULT_CHUNK_REQUESTS
) -> Iterator[TraceRequest]:
    """Yield ``spec``'s trace lazily, in O(``chunk_requests``) memory.

    Bit-identical to ``list(stream_workload(spec))`` for any chunk size
    and to :func:`repro.traces.synthetic.generate` (which delegates
    here), so a streamed replay and a materialized replay of the same
    seed see the exact same requests.
    """
    if chunk_requests < 1:
        raise ValueError("chunk_requests must be >= 1")

    # One independent child stream per random variable.  Chunked draws
    # from a *shared* stream would interleave differently at different
    # chunk sizes; per-variable streams are consumed element-
    # sequentially by numpy, so any chunking yields the same values.
    root = np.random.SeedSequence(spec.seed)
    (ss_layout, ss_arrival, ss_size, ss_op, ss_rank, ss_within, ss_seq) = root.spawn(7)
    layout_rng = np.random.default_rng(ss_layout)
    arrival_rng = np.random.default_rng(ss_arrival)
    size_rng = np.random.default_rng(ss_size)
    op_rng = np.random.default_rng(ss_op)
    rank_rng = np.random.default_rng(ss_rank)
    within_rng = np.random.default_rng(ss_within)
    seq_rng = np.random.default_rng(ss_seq)

    num_chunks = max(1, spec.footprint_bytes // spec.chunk_bytes)
    zipf = ZipfSampler(num_chunks, spec.zipf_theta, rank_rng)
    # Shuffle rank->chunk so the hot set is scattered over the
    # footprint.  O(footprint / chunk_bytes) — layout state, not trace
    # state; it does not grow with num_requests.
    chunk_of_rank = layout_rng.permutation(num_chunks)

    weights = np.asarray(spec.size_mix.weights, dtype=np.float64)
    weights = weights / weights.sum()
    sizes_arr = np.asarray(spec.size_mix.sizes)
    within_hi = max(1, spec.chunk_bytes // spec.align_bytes)
    limit = spec.footprint_bytes
    align = spec.align_bytes

    clock = 0.0  # running arrival time (sequential fold: chunk-invariant)
    seq_cursor = 0  # advances only on sequential continuations
    remaining = spec.num_requests
    while remaining > 0:
        m = min(chunk_requests, remaining)
        remaining -= m

        inter = arrival_rng.exponential(spec.mean_interarrival_us, size=m)
        sizes = size_rng.choice(sizes_arr, size=m, p=weights)
        is_write = op_rng.random(m) < spec.write_fraction
        ranks = zipf.sample(m)
        chunks = chunk_of_rank[ranks]
        within = within_rng.integers(0, within_hi, size=m)
        offsets = chunks.astype(np.int64) * spec.chunk_bytes + within * align
        sequential = seq_rng.random(m) < spec.sequential_fraction

        for i in range(m):
            clock += float(inter[i])
            size = int(sizes[i])
            if sequential[i]:
                if seq_cursor + size > limit:
                    seq_cursor = 0  # wrap at the footprint, stay sequential
                offset = seq_cursor
                seq_cursor += size
            else:
                offset = int(offsets[i])
                if offset + size > limit:
                    offset = max(0, limit - size)
                offset -= offset % align
            yield TraceRequest(
                arrival_us=clock,
                offset_bytes=offset,
                size_bytes=size,
                is_write=bool(is_write[i]),
            )


def stream_io_requests(
    spec: WorkloadSpec,
    geometry: Union["SSDGeometry", PageExtent],
    chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
) -> Iterator[IoRequest]:
    """Fused ``io_requests(stream_workload(spec), geometry)``.

    Yields the bit-identical :class:`IoRequest` sequence, but the whole
    per-request pipeline — arrival clock, offset placement, footprint
    clamp, page split — runs as chunk-wide numpy expressions instead of
    per-request Python, and no intermediate :class:`TraceRequest`
    objects are built.  Two scalar folds survive per chunk:

    * the arrival clock: ``clock += inter[i]`` is a strict
      left-to-right scan, which is exactly ``np.cumsum`` seeded by
      adding the running clock to the chunk's first gap (same IEEE
      additions in the same order, so arrivals stay bit-identical);
    * the sequential-continuation cursor, which feeds back into itself
      and therefore loops — but only over the sequential subset.

    Memory stays O(``chunk_requests``); random draws consume the same
    per-variable streams as :func:`stream_workload`, element for
    element.  When the TraceBus is on, each generation chunk announces
    itself with one ``perf/batch_window`` event.
    """
    if chunk_requests < 1:
        raise ValueError("chunk_requests must be >= 1")

    root = np.random.SeedSequence(spec.seed)
    (ss_layout, ss_arrival, ss_size, ss_op, ss_rank, ss_within, ss_seq) = root.spawn(7)
    layout_rng = np.random.default_rng(ss_layout)
    arrival_rng = np.random.default_rng(ss_arrival)
    size_rng = np.random.default_rng(ss_size)
    op_rng = np.random.default_rng(ss_op)
    rank_rng = np.random.default_rng(ss_rank)
    within_rng = np.random.default_rng(ss_within)
    seq_rng = np.random.default_rng(ss_seq)

    num_chunks = max(1, spec.footprint_bytes // spec.chunk_bytes)
    zipf = ZipfSampler(num_chunks, spec.zipf_theta, rank_rng)
    chunk_of_rank = layout_rng.permutation(num_chunks)

    weights = np.asarray(spec.size_mix.weights, dtype=np.float64)
    weights = weights / weights.sum()
    sizes_arr = np.asarray(spec.size_mix.sizes)
    within_hi = max(1, spec.chunk_bytes // spec.align_bytes)
    limit = spec.footprint_bytes
    align = spec.align_bytes
    capacity = geometry.capacity_bytes
    page = geometry.page_size
    write_op = IoOp.WRITE
    read_op = IoOp.READ

    clock = 0.0
    seq_cursor = 0
    remaining = spec.num_requests
    while remaining > 0:
        m = min(chunk_requests, remaining)
        remaining -= m

        inter = arrival_rng.exponential(spec.mean_interarrival_us, size=m)
        sizes = size_rng.choice(sizes_arr, size=m, p=weights).astype(np.int64, copy=False)
        is_write = op_rng.random(m) < spec.write_fraction
        ranks = zipf.sample(m)
        chunks = chunk_of_rank[ranks]
        within = within_rng.integers(0, within_hi, size=m)
        offsets = chunks.astype(np.int64) * spec.chunk_bytes + within * align
        sequential = seq_rng.random(m) < spec.sequential_fraction

        # Arrival clock: cumsum seeded with the running clock is the
        # same left-to-right float64 fold as the scalar loop.
        inter[0] += clock
        arrivals = np.cumsum(inter)
        clock = float(arrivals[-1])

        # Random placements: clamp to the footprint, then re-align
        # (the scalar path aligns clamped and unclamped alike).
        offs = np.where(offsets + sizes > limit, np.maximum(0, limit - sizes), offsets)
        offs -= offs % align
        # Sequential continuations overwrite their slots in trace order
        # (the cursor feeds back into itself, so this stays a loop —
        # over the sequential subset only).
        seq_idx = np.flatnonzero(sequential)
        if len(seq_idx):
            sizes_l = sizes.tolist()
            for i in seq_idx.tolist():
                size = sizes_l[i]
                if seq_cursor + size > limit:
                    seq_cursor = 0  # wrap at the footprint, stay sequential
                offs[i] = seq_cursor
                seq_cursor += size

        # Page alignment (the io_requests mapping, vectorised).
        offs %= capacity
        clamped = np.minimum(sizes, capacity - offs)
        first = offs // page
        count = (offs + clamped - 1) // page - first + 1

        if BUS.enabled:
            BUS.emit(
                "perf", "batch_window",
                float(arrivals[0]), float(arrivals[-1] - arrivals[0]),
                {"requests": int(m)}, None, "X",
            )

        arrivals_l = arrivals.tolist()
        first_l = first.tolist()
        count_l = count.tolist()
        write_l = is_write.tolist()
        for i in range(m):
            yield IoRequest(
                arrivals_l[i],
                first_l[i],
                count_l[i],
                write_op if write_l[i] else read_op,
            )


def io_requests(
    trace: Iterable[TraceRequest], geometry: "SSDGeometry"
) -> Iterator[IoRequest]:
    """Lazily page-align byte-addressed trace requests for ``geometry``.

    The offset wraps into the capacity, the size is clamped to it and
    the head and tail are padded to page boundaries: the one
    page-alignment rule of the simulator.
    """
    capacity = geometry.capacity_bytes
    page = geometry.page_size
    for r in trace:
        offset = r.offset_bytes % capacity
        size = min(r.size_bytes, capacity - offset)
        first = offset // page
        last = (offset + size - 1) // page
        yield IoRequest(
            r.arrival_us,
            first,
            last - first + 1,
            IoOp.WRITE if r.is_write else IoOp.READ,
        )
