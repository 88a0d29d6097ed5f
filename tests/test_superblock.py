"""Superblock FTL: local page mapping, budgeted block sets, local GC."""

import random

import pytest

from repro.ftl.superblock import SuperblockFtl


@pytest.fixture
def ftl(small_geometry, timing):
    return SuperblockFtl(small_geometry, timing, superblock_size=4, extra_blocks_per_superblock=2)


def test_superblock_of_groups_adjacent_blocks(ftl):
    pages = ftl.pages_per_superblock
    assert pages == 4 * ftl.pages_per_block
    assert ftl.superblock_of(0) == 0
    assert ftl.superblock_of(pages - 1) == 0
    assert ftl.superblock_of(pages) == 1


def test_writes_stay_within_superblock_budget(ftl):
    rng = random.Random(81)
    pages = ftl.pages_per_superblock
    for i in range(1500):
        ftl.write_page(rng.randrange(pages), float(i))  # superblock 0 only
    assert ftl.blocks_owned(0) <= ftl.block_budget + 1  # soft budget
    ftl.verify_integrity()


def test_no_merges_only_local_gc(ftl):
    """Unlike log-block hybrids, reclamation never rebuilds whole lbns."""
    rng = random.Random(82)
    pages = ftl.pages_per_superblock
    for i in range(1500):
        ftl.write_page(rng.randrange(pages), float(i))
    assert ftl.sb_stats.local_gcs > 0
    # moved pages per GC bounded by one block's pages
    assert ftl.gc_stats.moved_pages <= ftl.sb_stats.local_gcs * ftl.pages_per_block


def test_page_mapping_within_superblock(ftl):
    """Updates land at arbitrary offsets — no in-place constraint."""
    ftl.write_page(5, 0.0)
    first = ftl.current_ppn(5)
    ftl.write_page(5, 1.0)
    second = ftl.current_ppn(5)
    assert second != first
    from repro.flash.address import PageState

    assert ftl.array.state_of(first) == PageState.INVALID


def test_superblocks_are_independent(ftl):
    pages = ftl.pages_per_superblock
    rng = random.Random(83)
    for i in range(600):
        ftl.write_page(rng.randrange(pages), float(i))  # stress sb 0
    ftl.write_page(pages + 3, 0.0)  # one write to sb 1
    assert ftl.blocks_owned(1) == 1
    ftl.verify_integrity()


def test_dead_block_reclaim_is_free(ftl):
    """A fully-invalidated member block erases without copies."""
    ppb = ftl.pages_per_block
    # fill one block's worth, then rewrite everything: old block dies
    for lpn in range(ppb):
        ftl.write_page(lpn, 0.0)
    moves_before = ftl.gc_stats.moved_pages
    for _ in range(8):  # push the budget until the dead block is seen
        for lpn in range(ppb):
            ftl.write_page(lpn, 1.0)
    assert ftl.sb_stats.local_gcs > 0
    ftl.verify_integrity()


def test_integrity_mixed_load(ftl):
    rng = random.Random(84)
    for i in range(3000):
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


def test_map_journal_used(ftl):
    rng = random.Random(85)
    for i in range(1200):
        ftl.write_page(rng.randrange(ftl.pages_per_superblock), float(i))
    assert ftl.map_journal.map_writes > 0


def test_parameter_validation(small_geometry, timing):
    with pytest.raises(ValueError):
        SuperblockFtl(small_geometry, timing, superblock_size=0)
    with pytest.raises(ValueError):
        SuperblockFtl(small_geometry, timing, extra_blocks_per_superblock=0)


def test_registry(small_geometry):
    from repro.ftl.registry import create_ftl

    assert isinstance(create_ftl("superblock", small_geometry), SuperblockFtl)


def test_alloc_block_round_robins_then_reports_end_of_life(ftl):
    """The round-robin probes every plane, so running out of its loop
    *is* "no free blocks on any plane"."""
    from repro.ftl.base import OutOfSpaceError

    array = ftl.array
    for plane in range(1, ftl.num_planes):
        while array.free_block_count(plane):
            array.allocate_block(plane)
    assert array.codec.block_to_plane(ftl._alloc_block()) == 0
    while array.free_block_count(0):
        array.allocate_block(0)
    with pytest.raises(OutOfSpaceError, match="^no free blocks on any plane$"):
        ftl._alloc_block()
