"""Property-based tests (hypothesis) on core structures and invariants."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.address import AddressCodec
from repro.flash.array import FlashArray
from repro.flash.geometry import SSDGeometry
from repro.flash.timekeeper import FlashTimekeeper
from repro.flash.timing import TimingParams
from repro.ftl.allocator import PlaneAllocator
from repro.ftl.registry import create_ftl
from tests.test_cmt import recording_tm

TINY = SSDGeometry(
    channels=2,
    packages_per_channel=1,
    chips_per_package=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=8,
    pages_per_block=4,
    page_size=64,
    extra_blocks_percent=50.0,
)


# ---- address codec -----------------------------------------------------------


@given(
    plane=st.integers(0, TINY.num_planes - 1),
    block=st.integers(0, TINY.physical_blocks_per_plane - 1),
    page=st.integers(0, TINY.pages_per_block - 1),
)
def test_codec_round_trip(plane, block, page):
    codec = AddressCodec(TINY)
    ppn = codec.make_ppn(plane, block, page)
    assert codec.ppn_to_plane(ppn) == plane
    assert codec.ppn_to_page(ppn) == page
    assert codec.ppn_to_block(ppn) == codec.make_block(plane, block)
    assert codec.page_parity(ppn) == page % 2


# ---- CMT ----------------------------------------------------------------------


#: 4 planes x (32 + 8 extra) blocks x 8 pages of 256 bytes: 64 mapping
#: entries per translation page, and room on any one plane for every
#: write-back of a 100-step sequence.
SMALL = SSDGeometry(
    channels=2,
    packages_per_channel=1,
    chips_per_package=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=32,
    pages_per_block=8,
    page_size=256,
    extra_blocks_percent=25.0,
)


class SlruModel:
    """Reference segmented LRU (paper Fig. 6): entries enter probation, a
    hit promotes to protected, protected overflow re-enters at the
    probation MRU end, eviction takes the probation LRU end (the
    protected LRU end once probation is empty)."""

    def __init__(self, capacity, entries_per_tpage):
        self.capacity = capacity
        self.protected_capacity = capacity // 2
        self.entries_per_tpage = entries_per_tpage
        self.probation = []  # [lpn, dirty] pairs, LRU first
        self.protected = []
        self.written = []  # tvpns of dirty evictions, in order

    def _find(self, segment, lpn):
        for i, (entry, _dirty) in enumerate(segment):
            if entry == lpn:
                return i
        return None

    def access(self, lpn, update):
        i = self._find(self.protected, lpn)
        if i is not None:
            _, dirty = self.protected.pop(i)
            self.protected.append([lpn, dirty or update])
            return True
        i = self._find(self.probation, lpn)
        if i is not None:
            _, dirty = self.probation.pop(i)
            self.protected.append([lpn, dirty or update])
            while len(self.protected) > self.protected_capacity:
                self.probation.append(self.protected.pop(0))
            return True
        while len(self.probation) + len(self.protected) >= self.capacity:
            victim, dirty = (self.probation or self.protected).pop(0)
            if dirty:
                self.written.append(victim // self.entries_per_tpage)
        self.probation.append([lpn, update])
        return False


@given(
    capacity=st.integers(1, 16),
    ops=st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=100),
)
def test_cmt_never_overflows_and_stays_consistent(capacity, ops):
    """``charge_lookup`` / ``charge_update`` follow the reference model
    step for step: same segments, same order, same dirty flags and the
    same write-backs."""
    tm, written = recording_tm(SMALL, TimingParams(), capacity)
    model = SlruModel(capacity, tm.gtd.entries_per_tpage)
    for x, update in ops:
        lpn = x * 37  # few entries, so hits recur; over seven translation pages
        model.access(lpn, update)
        if update:
            tm.charge_update(lpn, 0.0)
        else:
            tm.charge_lookup(lpn, 0.0)
        assert len(tm.cmt) <= capacity
        assert lpn in tm.cmt  # just-accessed entry is resident
        assert [list(e) for e in tm.cmt.probation.items()] == model.probation
        assert [list(e) for e in tm.cmt.protected.items()] == model.protected
        assert written == model.written


@given(ops=st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=100))
def test_cmt_hits_plus_misses_equals_touches(ops):
    tm, _ = recording_tm(SMALL, TimingParams(), 8)
    model = SlruModel(8, tm.gtd.entries_per_tpage)
    hits = 0
    for lpn, update in ops:
        hits += model.access(lpn, update)
        if update:
            tm.charge_update(lpn, 0.0)
        else:
            tm.charge_lookup(lpn, 0.0)
    assert tm.cmt.stats.hits + tm.cmt.stats.misses == len(ops)
    assert tm.cmt.stats.hits == hits


# ---- allocator parity ------------------------------------------------------------


@given(parities=st.lists(st.integers(0, 1), min_size=1, max_size=20))
def test_allocate_with_parity_always_honours_parity(parities):
    # max 20: worst-case parity skipping fits one plane's pool
    array = FlashArray(TINY)
    alloc = PlaneAllocator(0, array)
    for i, parity in enumerate(parities):
        ppn, _skipped = alloc.allocate_with_parity(i, parity)
        assert array.codec.page_parity(ppn) == parity


@given(parities=st.lists(st.integers(0, 1), min_size=1, max_size=20))
def test_parity_waste_bounded_by_moves(parities):
    # max 20 moves: worst-case 2 slots per move fits one plane's pool
    array = FlashArray(TINY)
    alloc = PlaneAllocator(0, array)
    total_skips = 0
    for i, parity in enumerate(parities):
        _, skipped = alloc.allocate_with_parity(i, parity)
        total_skips += skipped
    assert total_skips <= 2 * len(parities)


# ---- timekeeper ------------------------------------------------------------------


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["read", "program", "erase", "copyback"]), st.integers(0, TINY.num_planes - 1)),
        max_size=60,
    )
)
def test_resource_timelines_monotone(ops):
    clock = FlashTimekeeper(TINY, TimingParams())
    t = 0.0
    for op, plane in ops:
        end = getattr(
            clock,
            {"read": "read_page", "program": "program_page", "erase": "erase_block", "copyback": "copy_back"}[op],
        )(plane, t)
        assert end > t  # every operation takes positive time
        assert clock.plane_free[plane] >= end or op in ("read",)
        t = end  # chain


@given(st.data())
def test_copy_back_never_slower_than_inter_plane(data):
    plane = data.draw(st.integers(0, TINY.num_planes - 1))
    start = data.draw(st.floats(0, 1e6, allow_nan=False))
    c1 = FlashTimekeeper(TINY, TimingParams())
    c2 = FlashTimekeeper(TINY, TimingParams())
    cb = c1.copy_back(plane, start) - start
    ip = c2.inter_plane_copy(plane, plane, start) - start
    assert cb < ip


# ---- whole-FTL state machine -------------------------------------------------------


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ftl_name=st.sampled_from(["dloop", "dftl", "fast", "bast", "last", "pagemap"]),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, int(TINY.num_lpns * 0.6) - 1)),
        min_size=1,
        max_size=300,
    ),
)
def test_ftl_matches_reference_model(ftl_name, ops):
    """Any op sequence: the FTL's mapping equals a dict reference model,
    flash state stays consistent, and time never goes backwards."""
    kwargs = {"cmt_entries": 16} if ftl_name in ("dloop", "dftl") else {}
    ftl = create_ftl(ftl_name, TINY, TimingParams(), **kwargs)
    reference = {}
    t = 0.0
    for is_write, lpn in ops:
        if is_write:
            end = ftl.write_page(lpn, t)
            reference[lpn] = True
        else:
            end = ftl.read_page(lpn, t)
        assert end >= t
        t = end
    assert set(int(x) for x in ftl.mapped_lpns()) == set(reference)
    ftl.verify_integrity()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=st.lists(
        st.integers(0, int(TINY.num_lpns * 0.6) - 1),
        min_size=50,
        max_size=400,
    )
)
def test_dloop_update_plane_invariant(ops):
    """Every valid data page of DLOOP sits on plane lpn %% planes unless
    emergency relocation moved it (tracked in gc stats)."""
    ftl = create_ftl("dloop", TINY, TimingParams(), cmt_entries=16)
    for i, lpn in enumerate(ops):
        ftl.write_page(lpn, float(i))
    if ftl.gc_stats.emergency_passes == 0:
        for lpn in ftl.mapped_lpns():
            plane = ftl.codec.ppn_to_plane(int(ftl.page_table[lpn]))
            assert plane == int(lpn) % TINY.num_planes


# ---- zipf --------------------------------------------------------------------------


@given(n=st.integers(1, 500), theta=st.floats(0, 2, allow_nan=False))
def test_zipf_pmf_properties(n, theta):
    from repro.traces.zipf import ZipfSampler

    z = ZipfSampler(n, theta, np.random.default_rng(0))
    pmf = z.pmf()
    assert len(pmf) == n
    assert math.isclose(pmf.sum(), 1.0, rel_tol=1e-9)
    assert np.all(np.diff(pmf) <= 1e-12)  # non-increasing


# ---- write buffer -------------------------------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    capacity=st.integers(1, 12),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, int(TINY.num_lpns * 0.5) - 1)),
        min_size=1,
        max_size=150,
    ),
)
def test_write_buffer_flush_equals_direct_writes(capacity, ops):
    """buffer(ops) + flush leaves the same mapped set as direct writes."""
    from repro.controller.writebuffer import WriteBuffer

    direct = create_ftl("pagemap", TINY, TimingParams())
    buffered_ftl = create_ftl("pagemap", TINY, TimingParams())
    buffer = WriteBuffer(buffered_ftl, capacity_pages=capacity)
    t = 0.0
    for is_write, lpn in ops:
        if is_write:
            direct.write_page(lpn, t)
            t2 = buffer.write_page(lpn, t)
        else:
            direct.read_page(lpn, t)
            t2 = buffer.read_page(lpn, t)
        assert t2 >= t
        t += 1000.0
    buffer.flush(t)
    assert set(map(int, direct.mapped_lpns())) == set(map(int, buffered_ftl.mapped_lpns()))
    buffered_ftl.verify_integrity()


# ---- latency histogram ---------------------------------------------------------------


@given(values=st.lists(st.floats(0.1, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=300))
def test_histogram_percentiles_ordered(values):
    from repro.metrics.latency import LatencyHistogram

    h = LatencyHistogram()
    for value in values:
        h.record(value)
    assert h.total == len(values)
    p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
    assert p50 <= p95 <= p99
    # estimates stay within one log-bucket of the true maximum
    top_bucket_hi = h.bucket_bounds(h._bucket_of(max(h.max_seen, h.min_us)))[1]
    assert h.percentile(100) <= top_bucket_hi + 1e-6
