"""Shared hybrid-FTL machinery: LogBlockMixin helpers and MapJournal."""

import pytest

from repro.flash.array import FlashArray
from repro.flash.timekeeper import FlashTimekeeper
from repro.ftl.bast import BastFtl
from repro.ftl.logblock import MapJournal


@pytest.fixture
def journal_env(small_geometry, timing):
    array = FlashArray(small_geometry)
    clock = FlashTimekeeper(small_geometry, timing)
    return array, clock


def test_journal_appends_on_plane_zero(journal_env):
    array, clock = journal_env
    journal = MapJournal(array, clock, ring_blocks=2)
    t = journal.record_update(0.0)
    assert t > 0.0
    assert journal.map_writes == 1
    assert clock.counters.plane_ops[0] == 1
    assert sum(clock.counters.plane_ops[1:]) == 0


def test_journal_pages_never_stay_valid(journal_env):
    array, clock = journal_env
    journal = MapJournal(array, clock)
    for i in range(20):
        journal.record_update(float(i))
    import numpy as np
    from repro.flash.address import PageState

    assert np.count_nonzero(array.page_state_np == PageState.VALID) == 0


def test_journal_ring_recycles(journal_env):
    array, clock = journal_env
    journal = MapJournal(array, clock, ring_blocks=2)
    ppb = array.geometry.pages_per_block
    free_before = array.free_block_count(0)
    # enough updates to wrap the ring several times
    for i in range(ppb * 6):
        journal.record_update(float(i))
    # ring never holds more than ring_blocks
    assert free_before - array.free_block_count(0) <= 2
    assert clock.counters.erases >= 4


def test_journal_validation(journal_env):
    array, clock = journal_env
    with pytest.raises(ValueError):
        MapJournal(array, clock, ring_blocks=0)


def test_mixin_switchable_detection(small_geometry, timing):
    ftl = BastFtl(small_geometry, timing, num_log_blocks=4)
    ppb = ftl.pages_per_block
    for off in range(ppb):
        ftl.write_page(off, 0.0)
    block = ftl.log_of_lbn[0]
    assert ftl._log_is_switchable(block, 0)
    # a rewritten page breaks switchability (stale copy inside)
    ftl2 = BastFtl(small_geometry, timing, num_log_blocks=4)
    for off in list(range(ppb - 1)) + [0]:  # rewrite offset 0 at the end
        ftl2.write_page(off, 0.0)
    block2 = ftl2.log_of_lbn[0]
    assert not ftl2._log_is_switchable(block2, 0)


def test_mixin_gather_merge_builds_clean_block(small_geometry, timing):
    ftl = BastFtl(small_geometry, timing, num_log_blocks=4)
    ppb = ftl.pages_per_block
    # scatter lbn 0's pages across logs via random-order writes
    for off in (3, 1, 5, 1, 3):
        ftl.write_page(off, 0.0)
    ftl._merge_association(0, 0.0)
    block = int(ftl.data_block[0])
    assert block != -1
    for ppn in ftl.array.valid_pages_in_block(block):
        owner = ftl.array.owner_of(ppn)
        assert owner // ppb == 0
        assert ppn % ppb == owner % ppb  # offsets preserved
    ftl.verify_integrity()


def test_mixin_summary(small_geometry, timing):
    ftl = BastFtl(small_geometry, timing, num_log_blocks=4)
    ftl.write_page(1, 0.0)
    summary = ftl.log_block_summary()
    assert summary["associations"] == 1


def test_alloc_block_falls_back_to_the_first_of_the_fullest_pools(small_geometry, timing):
    """Preferred plane empty: the pool with the most free blocks, the
    lowest-numbered one on a tie (``np.argmax``'s rule, without numpy)."""
    from repro.ftl.base import OutOfSpaceError

    ftl = BastFtl(small_geometry, timing)
    array = ftl.array
    while array.free_block_count(0):
        array.allocate_block(0)
    array.allocate_block(1)  # planes 2 and 3 now tie for the most
    block = ftl._alloc_block(0)
    assert array.codec.block_to_plane(block) == 2
    for plane in range(1, small_geometry.num_planes):
        while array.free_block_count(plane):
            array.allocate_block(plane)
    with pytest.raises(OutOfSpaceError, match="^no free blocks on any plane$"):
        ftl._alloc_block(0)
