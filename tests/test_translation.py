"""TranslationManager: CMT-miss / dirty-eviction flash traffic."""

from repro.flash.array import FlashArray
from repro.flash.timekeeper import FlashTimekeeper
from repro.ftl.allocator import PlaneAllocator
from repro.ftl.cmt import CachedMappingTable
from repro.ftl.gtd import GlobalTranslationDirectory
from repro.ftl.translation import TranslationManager


def make_tm(geometry, timing, cmt_entries=4):
    array = FlashArray(geometry)
    clock = FlashTimekeeper(geometry, timing)
    cmt = CachedMappingTable(cmt_entries)
    gtd = GlobalTranslationDirectory(geometry.num_lpns, geometry.page_size)
    allocators = [PlaneAllocator(p, array) for p in range(geometry.num_planes)]
    return TranslationManager(
        array=array,
        clock=clock,
        cmt=cmt,
        gtd=gtd,
        plane_of_tvpn=lambda tvpn: tvpn % geometry.num_planes,
        allocator_of_plane=lambda plane: allocators[plane],
        gc_hook=lambda plane, t: t,
    )


def test_cold_lookup_costs_nothing_on_flash(small_geometry, timing):
    """Unmapped translation page: no flash read charged."""
    tm = make_tm(small_geometry, timing)
    t = tm.charge_lookup(0, 10.0)
    assert t == 10.0
    assert tm.stats.tpage_reads == 0
    assert 0 in tm.cmt


def test_hit_is_free(small_geometry, timing):
    tm = make_tm(small_geometry, timing)
    tm.charge_lookup(0, 0.0)
    t = tm.charge_lookup(0, 5.0)
    assert t == 5.0


def test_miss_on_mapped_tpage_costs_a_read(small_geometry, timing):
    tm = make_tm(small_geometry, timing)
    tvpn = tm.gtd.tvpn_of(0)
    tm.write_back(tvpn, 0.0)  # materialise the translation page
    t = tm.charge_lookup(0, 1000.0)
    assert t > 1000.0
    assert tm.stats.tpage_reads == 1


def test_dirty_eviction_writes_back(small_geometry, timing):
    tm = make_tm(small_geometry, timing, cmt_entries=2)
    tm.charge_update(0, 0.0)
    tm.charge_update(1, 0.0)
    writes_before = tm.stats.tpage_writes
    t = tm.charge_update(2, 0.0)  # evicts lpn 0 (dirty) -> write-back
    assert tm.stats.tpage_writes == writes_before + 1
    assert t > 0.0


def test_clean_eviction_is_free(small_geometry, timing):
    tm = make_tm(small_geometry, timing, cmt_entries=2)
    tm.charge_lookup(0, 0.0)
    tm.charge_lookup(1, 0.0)
    t = tm.charge_lookup(2, 0.0)  # evicts clean entry, tvpn 0 unmapped
    assert t == 0.0
    assert tm.stats.tpage_writes == 0


def test_write_back_invalidates_old_tpage(small_geometry, timing):
    tm = make_tm(small_geometry, timing)
    tm.write_back(0, 0.0)
    first = tm.gtd.lookup(0)
    tm.write_back(0, 1000.0)
    second = tm.gtd.lookup(0)
    assert first != second
    from repro.flash.address import PageState

    assert tm.array.state_of(first) == PageState.INVALID
    assert tm.array.state_of(second) == PageState.VALID


def test_write_back_lands_on_policy_plane(small_geometry, timing):
    tm = make_tm(small_geometry, timing)
    for tvpn in range(min(4, tm.gtd.num_tpages)):
        tm.write_back(tvpn, 0.0)
        plane = tm.array.codec.ppn_to_plane(tm.gtd.lookup(tvpn))
        assert plane == tvpn % small_geometry.num_planes


def test_gc_update_batched_groups_by_tpage(small_geometry, timing):
    tm = make_tm(small_geometry, timing, cmt_entries=2)
    entries = tm.gtd.entries_per_tpage
    # two lpns in tpage 0, one in tpage 1, none cached
    moved = [(0, 100), (1, 101), (entries, 102)]
    tm.charge_lookup(3 * entries, 0.0)  # occupy CMT with an unrelated tpage's lpn
    before = tm.stats.tpage_writes
    tm.gc_update_mappings(moved, 0.0)
    assert tm.stats.tpage_writes == before + 2  # one RMW per distinct tvpn
    assert tm.stats.gc_batched_updates == 2


def test_gc_update_cached_entries_flip_dirty_free(small_geometry, timing):
    tm = make_tm(small_geometry, timing)
    tm.charge_lookup(0, 0.0)
    before = tm.stats.tpage_writes
    t = tm.gc_update_mappings([(0, 55)], 7.0)
    assert t == 7.0
    assert tm.stats.tpage_writes == before
    assert tm.cmt.probation[0] is True
