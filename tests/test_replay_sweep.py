"""Golden replay sweep: the one DLOOP page path against recorded behaviour.

``tests/fixtures/replay_sweep_fingerprints.json`` was recorded at the
last commit that carried two implementations of the DLOOP page protocol,
from the layered reference one (``batch_kernels=False``): for every FTL
x admission mode x queue depth x fault plan, the determinism fingerprint
(final clock repr, flash/GC counters, mapping-table CRCs), the completed
count and the request-stats accumulators down to the last Welford update
and reservoir slot.  (The materialized cells once held digests of
per-request latency lists; their ``stats`` entries were re-recorded in
the moments-and-reservoir form from those same lists, one push per
completion.)  The replays here must reproduce it bit for bit;
``SimSanitizer``'s shadow NAND model and the dict-model replay in
``test_golden_fingerprints.py`` remain the independent formulations.

The same file pins:

* that an observer never changes which code runs, and that the clock
  alone holds the resource timelines;
* the fused generator ``stream_io_requests`` against the unfused
  ``io_requests(stream_workload(...))`` pipeline (same values, same
  Python scalar types, any chunk size);
* the :class:`FlashTimekeeper` multi-op helpers against per-op calls
  (same completion times, same timelines, same counters).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import pytest

from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.flash.timekeeper import FlashTimekeeper
from repro.flash.timing import TimingParams
from functools import lru_cache

from repro.ftl.registry import create_ftl
from repro.obs.tracebus import BUS
from repro.perf.fingerprint import engine_fingerprint, ftl_fingerprint
from repro.traces.model import KB, SizeMix, WorkloadSpec
from repro.traces.stream import io_requests, stream_io_requests, stream_workload
from tests.ftl_cases import ftl_cases, resolve

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "replay_sweep_fingerprints.json")


def _geometry() -> SSDGeometry:
    # Small enough for a fast sweep, big enough that GC actually runs.
    return SSDGeometry(
        channels=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=24,
        pages_per_block=16,
        page_size=512,
        extra_blocks_percent=25.0,
    )


def _spec(geometry: SSDGeometry, n: int = 1200, seed: int = 0xBA7C4) -> WorkloadSpec:
    return WorkloadSpec(
        name="kernel-eq",
        num_requests=n,
        write_fraction=0.7,
        request_rate_per_s=20_000.0,
        size_mix=SizeMix((512, 1024, 2048), (0.5, 0.3, 0.2)),
        footprint_bytes=int(geometry.capacity_bytes * 0.55),
        sequential_fraction=0.2,
        zipf_theta=0.9,
        chunk_bytes=8 * KB,
        align_bytes=512,
        seed=seed,
    )


@lru_cache(maxsize=None)
def _supports_faults(ftl_name: str) -> bool:
    name, kwargs = resolve(ftl_name)
    return create_ftl(name, _geometry(), TimingParams(), **kwargs).fault_injection_supported


FAULTS = {
    "seed": 11,
    "program_fail_rate": 0.01,
    "erase_fail_rate": 0.005,
    "read_error_rate": 0.05,
    "read_uncorrectable_rate": 0.01,
    "program_fails_to_retire": 2,
}


def _digest(values) -> list:
    """``[count, sha256]`` of a float sequence's ``repr`` image."""
    image = "\n".join(map(repr, values)).encode("ascii")
    return [len(values), hashlib.sha256(image).hexdigest()]


def _stats_snapshot(stats) -> list:
    """Bit-exact digest of the request stats.

    ``repr`` on the floats (not ``==`` on rounded summaries) so a
    single ULP of drift in any Welford update or reservoir slot fails
    the sweep.  The leading ``"streaming"`` tag is part of the recorded
    cells.
    """
    common = [
        stats.pages_read, stats.pages_written, stats.pages_trimmed,
        stats.failed_requests, stats.retried_requests,
        stats.total_retries, stats.lost_pages,
    ]
    moments = [
        [m.count, repr(m.mean), repr(m._m2), repr(m.min), repr(m.max)]
        for m in (stats.overall, stats.reads, stats.writes)
    ]
    reservoir = [stats.reservoir.seen, _digest(stats.reservoir.values)]
    return ["streaming"] + common + moments + [reservoir]


def _replay(ftl_name: str, mode: str, faults: bool,
            *, n: int = 1200, sanitize: bool = False) -> dict:
    geometry = _geometry()
    name, kwargs = resolve(ftl_name)
    ssd = SimulatedSSD(
        geometry,
        TimingParams(),
        ftl=name,
        faults=FAULTS if faults else None,
        sanitize=sanitize,
        **kwargs,
    )
    ssd.precondition(0.5)
    requests = stream_io_requests(_spec(geometry, n=n), geometry)
    if mode == "materialized":
        end = ssd.run(list(requests))
    else:
        depth = int(mode.rsplit("qd", 1)[1])
        end = ssd.run_stream(requests, queue_depth=depth)
    fingerprint = ftl_fingerprint(ssd.ftl, end)
    fingerprint.update(engine_fingerprint(ssd.engine))
    fingerprint["completed"] = ssd.stats.count
    fingerprint["stats"] = _stats_snapshot(ssd.controller.stats)
    if sanitize:
        assert ssd.sanitizer is not None
        assert ssd.sanitizer.finalize()["violations"] == 0
    return fingerprint


@lru_cache(maxsize=None)
def _golden() -> dict:
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


#: The benchmarked FTL families.
SWEEP_FTLS = ("dloop", "dftl", "fast", "pagemap")
SWEEP_MODES = ("materialized", "stream-qd8", "stream-qd32")


@pytest.mark.parametrize("ftl_name", SWEEP_FTLS)
@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("faults", (False, True), ids=("nofaults", "faults"))
def test_replay_sweep(ftl_name, mode, faults):
    if faults and not _supports_faults(ftl_name):
        pytest.skip(f"{ftl_name} has no fault-injection seams")
    cell = f"{ftl_name}/{mode}/{'faults' if faults else 'nofaults'}"
    assert _replay(ftl_name, mode, faults) == _golden()["sweep"][cell], (
        f"{cell}: replay diverged from the recorded layered reference"
    )


@pytest.mark.parametrize("ftl_name", ftl_cases())
def test_every_ftl_equivalent_under_faults_and_sanitizer(ftl_name):
    # The acceptance sweep: every registered FTL, faults injected
    # (where the FTL has seams) and the shadow-model sanitizer attached
    # (so the TraceBus is enabled and every emit site runs).
    faults = _supports_faults(ftl_name)
    observed = _replay(ftl_name, "stream-qd32", faults, n=700, sanitize=True)
    assert observed == _golden()["sanitized_faults"][ftl_name]


# ---- one implementation, whoever is watching ---------------------------------


def _functions_entered(observed: bool) -> set:
    """``repro.core``/``repro.ftl``/``repro.flash`` functions a small
    GC-heavy DLOOP replay enters, with or without a TraceBus subscriber."""
    geometry = _geometry()
    ssd = SimulatedSSD(geometry, TimingParams(), ftl="dloop")
    ssd.precondition(0.5)
    requests = list(stream_io_requests(_spec(geometry), geometry))
    entered = set()

    def profiler(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith(("repro.core", "repro.ftl", "repro.flash")):
                code = frame.f_code
                entered.add((module, code.co_name, code.co_firstlineno))

    def subscriber(event) -> None:
        pass

    if observed:
        BUS.subscribe(subscriber)
    sys.setprofile(profiler)
    try:
        ssd.run(requests)
    finally:
        sys.setprofile(None)
        if observed:
            BUS.unsubscribe(subscriber)
    assert ssd.ftl.gc_stats.passes > 0 and ssd.ftl.gc_stats.moved_pages > 0
    return entered


def test_observer_does_not_change_which_code_runs():
    # ``BUS.enabled`` means "emit", never "switch implementation".
    assert _functions_entered(observed=True) == _functions_entered(observed=False)


def test_rebound_clock_holds_the_whole_timeline():
    # No object but the clock holds its timelines: a device whose clock
    # is replaced by a fresh FlashTimekeeper before preconditioning
    # replays exactly like one that keeps the clock it was built with.
    geometry = _geometry()

    def replay(rebind: bool) -> dict:
        ssd = SimulatedSSD(geometry, TimingParams(), ftl="dloop")
        if rebind:
            ssd.ftl.clock = ssd.ftl.tm.clock = FlashTimekeeper(geometry, ssd.timing)
        ssd.precondition(0.5)
        requests = stream_io_requests(_spec(geometry, n=600), geometry)
        return ftl_fingerprint(ssd.ftl, ssd.run_stream(requests, queue_depth=8))

    assert replay(rebind=True) == replay(rebind=False)


# ---- fused generator vs unfused pipeline -----------------------------------


@pytest.mark.parametrize("chunk", (1, 113, 2000))
def test_fused_generator_matches_unfused_pipeline(chunk):
    geometry = _geometry()
    spec = _spec(geometry, n=2500)
    fused = list(stream_io_requests(spec, geometry, chunk_requests=chunk))
    unfused = list(io_requests(stream_workload(spec, chunk_requests=chunk), geometry))
    assert len(fused) == len(unfused)
    for a, b in zip(fused, unfused):
        assert repr(a.arrival_us) == repr(b.arrival_us)
        assert a.start_lpn == b.start_lpn
        assert a.page_count == b.page_count
        assert a.op is b.op
        # Scalar *types* matter too: fingerprints repr() these fields.
        assert type(a.arrival_us) is float and type(a.start_lpn) is int
        assert type(a.page_count) is int


def test_fused_generator_rejects_bad_chunk():
    geometry = _geometry()
    with pytest.raises(ValueError):
        next(stream_io_requests(_spec(geometry), geometry, chunk_requests=0))


# ---- timekeeper batch APIs vs scalar ---------------------------------------


def _random_planes(geometry: SSDGeometry, n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(geometry.num_planes) for _ in range(n)]


@pytest.mark.parametrize("batch_op,scalar_op", (
    ("read_pages", "read_page"),
    ("program_pages", "program_page"),
))
def test_timekeeper_batch_matches_scalar(batch_op, scalar_op):
    geometry = _geometry()
    timing = TimingParams()
    planes = _random_planes(geometry, 200, seed=42)

    batch_clock = FlashTimekeeper(geometry, timing)
    scalar_clock = FlashTimekeeper(geometry, timing)
    start = 0.0
    batch_ends = []
    scalar_ends = []
    # Several windows so later windows start from advanced timelines.
    for lo in range(0, len(planes), 50):
        window = planes[lo:lo + 50]
        batch_ends.extend(getattr(batch_clock, batch_op)(window, start))
        scalar_ends.extend(getattr(scalar_clock, scalar_op)(p, start) for p in window)
        start = max(batch_ends[-1], 1.0)

    assert list(map(repr, batch_ends)) == list(map(repr, scalar_ends))
    assert batch_clock.plane_free == scalar_clock.plane_free
    assert batch_clock.channel_free == scalar_clock.channel_free
    assert batch_clock.counters.as_dict() == scalar_clock.counters.as_dict()
