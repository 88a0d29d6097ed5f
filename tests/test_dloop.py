"""DLOOP FTL: placement policy, update co-location, copy-back GC."""

import random

import pytest

from repro.core.dloop import DloopFtl
from repro.flash.address import PageState


@pytest.fixture
def ftl(small_geometry, timing):
    return DloopFtl(small_geometry, timing, cmt_entries=64)


def test_new_write_lands_on_lpn_modulo_plane(ftl):
    """Eq. 1: plane_no = LPN % No_of_planes."""
    for lpn in range(ftl.num_planes * 3):
        ftl.write_page(lpn, 0.0)
        plane = ftl.codec.ppn_to_plane(ftl.current_ppn(lpn))
        assert plane == lpn % ftl.num_planes


def test_update_stays_on_original_plane(ftl):
    """Section III.B: updates go to the plane of the original data."""
    lpn = 5
    ftl.write_page(lpn, 0.0)
    original_plane = ftl.codec.ppn_to_plane(ftl.current_ppn(lpn))
    for _ in range(10):
        ftl.write_page(lpn, 0.0)
        assert ftl.codec.ppn_to_plane(ftl.current_ppn(lpn)) == original_plane


def test_update_invalidates_old_copy(ftl):
    ftl.write_page(7, 0.0)
    old = ftl.current_ppn(7)
    ftl.write_page(7, 0.0)
    assert ftl.array.state_of(old) == PageState.INVALID
    assert ftl.array.state_of(ftl.current_ppn(7)) == PageState.VALID


def test_read_after_write_maps_correctly(ftl):
    ftl.write_page(3, 0.0)
    t = ftl.read_page(3, 1000.0)
    assert t > 1000.0
    assert ftl.array.owner_of(ftl.current_ppn(3)) == 3


def test_unmapped_read_touches_no_flash(ftl):
    reads_before = ftl.clock.counters.reads
    ftl.read_page(9, 0.0)
    assert ftl.clock.counters.reads == reads_before
    assert ftl.stats.unmapped_reads == 1


def test_sequential_request_spreads_over_planes(ftl):
    """Multi-page requests stripe across planes (Section II.B)."""
    planes = set()
    for lpn in range(ftl.num_planes):
        ftl.write_page(lpn, 0.0)
        planes.add(ftl.codec.ppn_to_plane(ftl.current_ppn(lpn)))
    assert len(planes) == ftl.num_planes


def test_lpn_out_of_range_rejected(ftl):
    with pytest.raises(ValueError):
        ftl.write_page(ftl.geometry.num_lpns, 0.0)
    with pytest.raises(ValueError):
        ftl.read_page(-1, 0.0)


def test_gc_triggers_below_threshold_and_uses_copyback(ftl):
    rng = random.Random(1)
    lpns = [lpn for lpn in range(0, ftl.geometry.num_lpns, ftl.num_planes)][:30]
    # hammer one plane until GC must run
    for i in range(2000):
        ftl.write_page(rng.choice(lpns), float(i))
    assert ftl.gc_stats.invocations > 0
    assert ftl.gc_stats.copyback_moves == ftl.gc_stats.moved_pages
    assert ftl.gc_stats.controller_moves == 0
    assert ftl.array.free_block_count(0) >= 1
    ftl.verify_integrity()


def test_gc_respects_parity_rule(ftl):
    """Every copy-back destination shares parity with its source.

    Verified indirectly: after heavy updates + GC, integrity holds and
    skipped pages were recorded whenever parity would have mismatched.
    """
    rng = random.Random(2)
    for i in range(3000):
        lpn = rng.randrange(int(ftl.geometry.num_lpns * 0.7))
        ftl.write_page(lpn, float(i))
    ftl.verify_integrity()
    assert ftl.gc_stats.moved_pages >= 0
    # wasted pages counted consistently between stats and counters
    assert ftl.gc_stats.wasted_pages == ftl.clock.counters.skipped_pages


def test_no_copyback_ablation_uses_controller(small_geometry, timing):
    ftl = DloopFtl(small_geometry, timing, cmt_entries=64, use_copyback=False)
    rng = random.Random(3)
    for i in range(2500):
        ftl.write_page(rng.randrange(int(ftl.geometry.num_lpns * 0.7)), float(i))
    assert ftl.gc_stats.moved_pages > 0
    assert ftl.gc_stats.copyback_moves == 0
    assert ftl.gc_stats.controller_moves == ftl.gc_stats.moved_pages
    ftl.verify_integrity()


def test_translation_pages_striped_across_planes(ftl):
    """Unlike DFTL, translation pages spread by tvpn % planes."""
    # force many distinct translation pages to materialise
    entries = ftl.gtd.entries_per_tpage
    for tvpn in range(ftl.gtd.num_tpages):
        ftl.tm.write_back(tvpn, 0.0)
    planes = {
        ftl.codec.ppn_to_plane(ftl.gtd.lookup(tvpn))
        for tvpn in range(ftl.gtd.num_tpages)
        if ftl.gtd.is_mapped(tvpn)
    }
    assert len(planes) == min(ftl.gtd.num_tpages, ftl.num_planes)


def test_gc_preserves_all_valid_data(ftl):
    """No logical page is lost across many GC cycles."""
    rng = random.Random(4)
    shadow = {}
    for i in range(4000):
        lpn = rng.randrange(int(ftl.geometry.num_lpns * 0.7))
        ftl.write_page(lpn, float(i))
        shadow[lpn] = True
    for lpn in shadow:
        ppn = ftl.current_ppn(lpn)
        assert ppn != -1
        assert ftl.array.owner_of(ppn) == lpn
        assert ftl.array.state_of(ppn) == PageState.VALID
    ftl.verify_integrity()


def test_completion_times_monotone_with_arrival(ftl):
    t1 = ftl.write_page(0, 0.0)
    t2 = ftl.write_page(0, t1)
    assert t2 > t1


def test_gc_threshold_validation(small_geometry, timing):
    with pytest.raises(ValueError):
        DloopFtl(small_geometry, timing, gc_threshold=1)
