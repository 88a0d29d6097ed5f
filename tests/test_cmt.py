"""Cached Mapping Table: the segmented LRU that every run executes.

``TranslationManager.charge_lookup`` / ``charge_update`` apply the
protocol to the CMT's two segments, so these cases drive them on a
small geometry: a hit promotes to the protected segment, protected
overflow re-enters at the probation MRU end, eviction takes the
probation LRU end, and a dirty eviction writes back exactly its
translation page.
"""

import pytest

from repro.ftl.cmt import CachedMappingTable
from tests.test_translation import make_tm


def recording_tm(geometry, timing, cmt_entries):
    """A TranslationManager whose ``write_back`` calls are logged by tvpn."""
    tm = make_tm(geometry, timing, cmt_entries=cmt_entries)
    written = []
    write_back = tm.write_back

    def logged(tvpn, now):
        written.append(tvpn)
        return write_back(tvpn, now)

    tm.write_back = logged
    return tm, written


def test_insert_and_hit(small_geometry, timing):
    tm = make_tm(small_geometry, timing, cmt_entries=4)
    tm.charge_lookup(1, 0.0)  # miss loads the entry
    tm.charge_lookup(1, 0.0)  # hit
    assert tm.cmt.stats.hits == 1
    assert tm.cmt.stats.misses == 1
    assert 1 in tm.cmt


def test_capacity_never_exceeded(small_geometry, timing):
    tm = make_tm(small_geometry, timing, cmt_entries=3)
    for lpn in range(10):
        tm.charge_lookup(lpn, 0.0)
        assert len(tm.cmt) <= 3
        tm.charge_update(lpn + 20, 0.0)
        assert len(tm.cmt) <= 3


def test_eviction_is_lru_from_probation(small_geometry, timing):
    tm = make_tm(small_geometry, timing, cmt_entries=3)
    for lpn in (1, 2, 3):
        tm.charge_lookup(lpn, 0.0)
    tm.charge_lookup(4, 0.0)
    assert 1 not in tm.cmt
    assert list(tm.cmt.probation) == [2, 3, 4]
    assert tm.cmt.stats.evictions == 1


def test_hit_promotes_to_protected_and_survives_eviction(small_geometry, timing):
    tm = make_tm(small_geometry, timing, cmt_entries=3)
    for lpn in (1, 2, 3):
        tm.charge_lookup(lpn, 0.0)
    tm.charge_lookup(1, 0.0)  # promote 1 to the protected segment
    assert list(tm.cmt.protected) == [1]
    tm.charge_lookup(4, 0.0)  # evicts probationary LRU (2), not protected 1
    assert 1 in tm.cmt
    assert 2 not in tm.cmt


def test_protected_overflow_demotes(small_geometry, timing):
    """Four entries hold two protected slots: a third hit demotes the
    protected LRU to the probation MRU end, so the next miss evicts the
    older probation entry instead of the demoted one.  Lookups and
    updates promote alike."""
    for charge in ("charge_lookup", "charge_update"):
        tm = make_tm(small_geometry, timing, cmt_entries=4)
        hit = getattr(tm, charge)
        for lpn in (1, 2, 3, 4):
            tm.charge_lookup(lpn, 0.0)
        for lpn in (1, 2, 3):
            hit(lpn, 0.0)
        assert list(tm.cmt.protected) == [2, 3], charge
        assert list(tm.cmt.probation) == [4, 1], charge
        tm.charge_lookup(5, 0.0)
        assert 1 in tm.cmt, charge
        assert 4 not in tm.cmt, charge


def test_dirty_flag_round_trip(small_geometry, timing):
    """A lookup loads the entry clean, an update dirties it, and its
    eviction writes it back and takes the flag with it."""
    tm, written = recording_tm(small_geometry, timing, cmt_entries=1)
    tm.charge_lookup(7, 0.0)
    assert tm.cmt.probation[7] is False
    tm.charge_update(7, 0.0)  # a one-entry CMT has no protected slot
    assert tm.cmt.probation[7] is True
    tm.charge_lookup(8, 0.0)
    assert written == [tm.gtd.tvpn_of(7)]
    assert 7 not in tm.cmt
    assert tm.cmt.probation[8] is False


def test_dirty_survives_promotion(small_geometry, timing):
    tm = make_tm(small_geometry, timing, cmt_entries=4)
    tm.charge_update(7, 0.0)  # miss: enters probation dirty
    tm.charge_lookup(7, 0.0)  # hit: promoted with its flag
    assert tm.cmt.protected[7] is True


def test_eviction_reports_dirtiness(small_geometry, timing):
    """A dirty eviction writes back exactly the victim's translation page."""
    tm, written = recording_tm(small_geometry, timing, cmt_entries=1)
    entries = tm.gtd.entries_per_tpage
    victim = 3 * entries + 5
    tm.charge_update(victim, 0.0)
    tm.charge_lookup(1, 0.0)
    assert written == [3]
    assert tm.cmt.stats.dirty_evictions == 1
    assert tm.stats.tpage_writes == 1
    assert tm.gtd.tpage_ppn[3] != -1
    tm.charge_lookup(2, 0.0)  # a clean eviction writes nothing
    assert written == [3]
    assert tm.cmt.stats.evictions == 2


def test_mark_dirty_missing_raises():
    with pytest.raises(KeyError):
        CachedMappingTable(4).mark_dirty(9)


def test_hit_ratio(small_geometry, timing):
    tm = make_tm(small_geometry, timing, cmt_entries=4)
    tm.charge_lookup(1, 0.0)  # miss
    tm.charge_lookup(1, 0.0)
    tm.charge_update(1, 0.0)
    assert tm.cmt.stats.hit_ratio == pytest.approx(2 / 3)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        CachedMappingTable(0)


def test_cached_lpns_lists_all(small_geometry, timing):
    """Membership and size span both segments."""
    tm = make_tm(small_geometry, timing, cmt_entries=4)
    for lpn in (1, 2, 3):
        tm.charge_lookup(lpn, 0.0)
    tm.charge_lookup(2, 0.0)  # 2 moves to the protected segment
    assert list(tm.cmt.protected) == [2]
    assert all(lpn in tm.cmt for lpn in (1, 2, 3))
    assert 4 not in tm.cmt
    assert len(tm.cmt) == 3
