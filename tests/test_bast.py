"""BAST hybrid FTL: block-associated logs and their thrashing."""

import random

import pytest

from repro.ftl.bast import BastFtl
from repro.ftl.fast import FastFtl


@pytest.fixture
def ftl(small_geometry, timing):
    return BastFtl(small_geometry, timing, num_log_blocks=4)


def test_each_lbn_gets_its_own_log(ftl):
    ppb = ftl.pages_per_block
    ftl.write_page(1, 0.0)          # lbn 0
    ftl.write_page(ppb + 1, 0.0)    # lbn 1
    assert len(ftl.log_of_lbn) == 2
    assert ftl.log_of_lbn[0] != ftl.log_of_lbn[1]


def test_updates_append_to_the_association(ftl):
    ftl.write_page(1, 0.0)
    block = ftl.log_of_lbn[0]
    ftl.write_page(2, 0.0)
    ftl.write_page(1, 0.0)  # rewrite: same log block
    assert ftl.log_of_lbn[0] == block
    assert int(ftl.array.block_write_ptr[block]) == 3


def test_pool_exhaustion_merges_lru_association(ftl):
    ppb = ftl.pages_per_block
    for lbn in range(4):
        ftl.write_page(lbn * ppb + 1, 0.0)
    assert ftl.log_blocks_in_use() == 4
    merges_before = ftl.bast_stats.full_merges
    ftl.write_page(4 * ppb + 1, 0.0)  # 5th association: evict lbn 0
    assert ftl.bast_stats.full_merges == merges_before + 1
    assert 0 not in ftl.log_of_lbn
    assert ftl.log_blocks_in_use() == 4


def test_switch_merge_on_perfect_sequential_log(ftl):
    ppb = ftl.pages_per_block
    for off in range(ppb):
        ftl.write_page(off, 0.0)  # fills lbn 0's log sequentially
    # log is full; the next write to lbn 0 merges it — a switch merge
    moves_before = ftl.gc_stats.moved_pages
    ftl.write_page(0, 0.0)
    assert ftl.bast_stats.switch_merges == 1
    assert ftl.gc_stats.moved_pages == moves_before
    assert ftl.data_block[0] != -1


def test_full_log_triggers_merge_and_new_log(ftl):
    ppb = ftl.pages_per_block
    for i in range(ppb):
        ftl.write_page(1, float(i))  # same page repeatedly: log fills with stale copies
    ftl.write_page(1, 99.0)
    assert ftl.bast_stats.full_merges >= 1
    ftl.verify_integrity()


def test_random_writes_thrash_worse_than_fast(small_geometry, timing):
    """BAST's known weakness: scattered updates exhaust associations."""
    workload = [(random.Random(31).randrange(int(small_geometry.num_lpns * 0.6)), i) for i in range(1500)]
    rng = random.Random(31)
    workload = [(rng.randrange(int(small_geometry.num_lpns * 0.6)), i) for i in range(1500)]
    bast = BastFtl(small_geometry, timing, num_log_blocks=4)
    fast = FastFtl(small_geometry, timing, num_log_blocks=4)
    t_bast = t_fast = 0.0
    for lpn, i in workload:
        t_bast = bast.write_page(lpn, float(i))
        t_fast = fast.write_page(lpn, float(i))
    assert bast.gc_stats.moved_pages > fast.gc_stats.moved_pages
    bast.verify_integrity()
    fast.verify_integrity()


def test_map_journal_hits_plane_zero(ftl):
    rng = random.Random(32)
    for i in range(800):
        ftl.write_page(rng.randrange(int(ftl.geometry.num_lpns * 0.6)), float(i))
    assert ftl.map_journal.map_writes > 0
    ftl.verify_integrity()


def test_integrity_under_mixed_load(ftl):
    rng = random.Random(33)
    for i in range(2500):
        lpn = rng.randrange(int(ftl.geometry.num_lpns * 0.7))
        if rng.random() < 0.6:
            ftl.write_page(lpn, float(i))
        else:
            ftl.read_page(lpn, float(i))
    ftl.verify_integrity()


def test_bulk_fill(ftl):
    count = int(ftl.geometry.num_lpns * 0.5)
    ftl.bulk_fill(count)
    assert len(ftl.mapped_lpns()) == count
    ftl.verify_integrity()


def test_needs_at_least_one_log_block(small_geometry, timing):
    with pytest.raises(ValueError):
        BastFtl(small_geometry, timing, num_log_blocks=0)


@pytest.mark.parametrize("fill", [1.0, 0.999])
def test_full_device_keeps_room_for_a_merge(fill):
    """With every data block mapped, the extra blocks hold the log pool,
    the map journal's two ring blocks and the fresh block a full merge
    gathers into.  A pool sized with room for only two of those ran out
    of free blocks mid-merge and failed 636 of these 1 500 requests."""
    from repro.controller.device import SimulatedSSD
    from repro.flash.geometry import KB, SSDGeometry
    from repro.traces.stream import stream_io_requests
    from repro.traces.synthetic import make_workload

    geometry = SSDGeometry(channels=2, dies_per_chip=1, planes_per_die=2,
                           blocks_per_plane=64, pages_per_block=64,
                           page_size=2 * KB, extra_blocks_percent=10.0)
    ssd = SimulatedSSD(geometry, ftl="bast")
    ssd.precondition(fill)
    spec = make_workload("tpcc", 1500, int(geometry.capacity_bytes * 0.9))
    ssd.run_stream(stream_io_requests(spec, geometry), queue_depth=1)
    assert ssd.controller.stats.failed_requests == 0
    ssd.ftl.verify_integrity()
    extra = geometry.num_planes * geometry.extra_blocks_per_plane
    assert ssd.ftl.num_log_blocks + ssd.ftl.map_journal.ring_blocks + 1 <= extra
