"""Write-point allocators: sequential fill, parity handling, roaming."""

import pytest

from repro.flash.array import FlashArray, FlashStateError
from repro.ftl.allocator import PlaneAllocator, RoamingAllocator


@pytest.fixture
def array(small_geometry):
    return FlashArray(small_geometry)


def test_plane_allocator_fills_sequentially(array):
    alloc = PlaneAllocator(0, array)
    ppns = [alloc.allocate(i) for i in range(array.geometry.pages_per_block)]
    assert ppns == list(range(ppns[0], ppns[0] + len(ppns)))
    block = array.codec.ppn_to_block(ppns[0])
    assert all(array.codec.ppn_to_block(p) == block for p in ppns)


def test_plane_allocator_opens_new_block_when_full(array):
    alloc = PlaneAllocator(0, array)
    ppb = array.geometry.pages_per_block
    first_block_ppns = [alloc.allocate(i) for i in range(ppb)]
    next_ppn = alloc.allocate(ppb)
    assert array.codec.ppn_to_block(next_ppn) != array.codec.ppn_to_block(first_block_ppns[0])


def test_plane_allocator_stays_on_its_plane(array):
    for plane in range(array.geometry.num_planes):
        alloc = PlaneAllocator(plane, array)
        for i in range(20):
            ppn = alloc.allocate(i)
            assert array.codec.ppn_to_plane(ppn) == plane


def test_allocate_programs_owner(array):
    alloc = PlaneAllocator(1, array)
    ppn = alloc.allocate(99)
    assert array.owner_of(ppn) == 99


def test_parity_match_no_skip(array):
    alloc = PlaneAllocator(0, array)
    ppn, skipped = alloc.allocate_with_parity(1, parity=0)
    assert skipped == 0
    assert array.codec.page_parity(ppn) == 0


def test_parity_mismatch_skips_one_page(array):
    alloc = PlaneAllocator(0, array)
    ppn, skipped = alloc.allocate_with_parity(1, parity=1)  # offset 0 is even
    assert skipped == 1
    assert array.codec.page_parity(ppn) == 1
    # the skipped page is unusable and invalid
    assert array.block_invalid[array.codec.ppn_to_block(ppn)] == 1


def test_parity_sequence_alternates_freely(array):
    alloc = PlaneAllocator(0, array)
    _, s0 = alloc.allocate_with_parity(1, 0)
    _, s1 = alloc.allocate_with_parity(2, 1)
    _, s2 = alloc.allocate_with_parity(3, 0)
    assert (s0, s1, s2) == (0, 0, 0)


def test_parity_skip_at_block_boundary(array):
    """Wrong parity on the last page wastes it and opens a new block."""
    alloc = PlaneAllocator(0, array)
    ppb = array.geometry.pages_per_block
    for i in range(ppb - 1):
        alloc.allocate(i)
    # only the last (odd-parity) page remains; an even-parity source
    # forces a skip into a new block
    ppn, skipped = alloc.allocate_with_parity(100, parity=0)
    assert skipped == 1
    assert array.codec.page_parity(ppn) == 0
    assert array.codec.ppn_to_page(ppn) == 0  # first page of the new block


def test_parity_invalid_value(array):
    alloc = PlaneAllocator(0, array)
    with pytest.raises(ValueError):
        alloc.allocate_with_parity(1, parity=2)


def test_next_offset_reflects_pointer(array):
    alloc = PlaneAllocator(0, array)
    assert alloc.next_offset() == 0
    alloc.allocate(1)
    assert alloc.next_offset() == 1


def test_active_blocks_excludes_none_initially(array):
    alloc = PlaneAllocator(0, array)
    assert alloc.active_blocks() == set()
    alloc.allocate(1)
    assert alloc.active_blocks() == {alloc.current_block}


def test_pool_exhaustion_raises(array):
    alloc = PlaneAllocator(0, array)
    total_pages = array.geometry.physical_blocks_per_plane * array.geometry.pages_per_block
    for i in range(total_pages):
        alloc.allocate(i)
    with pytest.raises(FlashStateError):
        alloc.allocate(total_pages)


def test_roaming_allocator_spreads_over_planes(array):
    alloc = RoamingAllocator(array)
    ppb = array.geometry.pages_per_block
    planes_used = set()
    # consume several blocks; pool-depth-driven choice spreads over planes
    for i in range(ppb * array.geometry.num_planes):
        ppn = alloc.allocate(i)
        planes_used.add(array.codec.ppn_to_plane(ppn))
    assert len(planes_used) == array.geometry.num_planes


def test_roaming_allocator_one_block_at_a_time(array):
    alloc = RoamingAllocator(array)
    ppb = array.geometry.pages_per_block
    blocks = {array.codec.ppn_to_block(alloc.allocate(i)) for i in range(ppb)}
    assert len(blocks) == 1  # a whole block fills before roaming


def test_roaming_peek_plane_matches_next_allocation(array):
    alloc = RoamingAllocator(array)
    plane = alloc.peek_plane()
    ppn = alloc.allocate(0)
    assert array.codec.ppn_to_plane(ppn) == plane


def test_roaming_allocator_takes_the_first_of_the_fullest_planes(array):
    """``np.argmax``'s tie-break, kept without numpy: among planes with
    equally many free blocks, the lowest-numbered one."""
    array.allocate_block(0)
    array.allocate_block(2)
    array.allocate_block(2)
    alloc = RoamingAllocator(array)
    assert alloc._pick_plane() == 1  # planes 1 and 3 tie for the most
    array.allocate_block(1)
    array.allocate_block(1)
    assert alloc._pick_plane() == 3
    assert RoamingAllocator(array, planes=range(0, 3))._pick_plane() == 0


def test_roaming_allocator_exhaustion_text(array):
    for plane in range(array.geometry.num_planes):
        while array.free_block_count(plane):
            array.allocate_block(plane)
    with pytest.raises(FlashStateError, match="^no free blocks on any plane$"):
        RoamingAllocator(array)._pick_plane()
