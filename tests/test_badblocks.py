"""Bad-block management and endurance estimation."""

import random

import pytest

from repro.flash.array import FlashArray, FlashStateError
from repro.flash.badblocks import BadBlockManager
from repro.flash.geometry import SSDGeometry
from repro.metrics.endurance import estimate_endurance


@pytest.fixture
def array(small_geometry):
    return FlashArray(small_geometry)


def test_factory_bad_blocks_leave_pools(array):
    manager = BadBlockManager(array, factory_bad_rate=0.2, seed=1)
    assert manager.stats.factory_bad > 0
    assert array.bad_block_count() == manager.stats.factory_bad
    total_pooled = sum(array.free_block_count(p) for p in range(array.geometry.num_planes))
    assert total_pooled == array.geometry.num_physical_blocks - manager.stats.factory_bad


def test_factory_bad_reproducible(small_geometry):
    a = BadBlockManager(FlashArray(small_geometry), factory_bad_rate=0.1, seed=7)
    b = BadBlockManager(FlashArray(small_geometry), factory_bad_rate=0.1, seed=7)
    assert a.array.bad_block_mask.tolist() == b.array.bad_block_mask.tolist()


def test_worn_block_retires_at_release(array):
    manager = BadBlockManager(array, rated_cycles=3, endurance_spread=0.0, factory_bad_rate=0.0)
    block = array.allocate_block(0)
    for _ in range(3):  # reach rated cycles
        array.erase(block)
    array.release_block(block)
    assert array.is_block_bad(block)
    assert manager.stats.worn_out == 1
    assert not array.block_free_mask[block]


def test_fresh_block_still_pools(array):
    BadBlockManager(array, rated_cycles=100, factory_bad_rate=0.0)
    block = array.allocate_block(0)
    array.erase(block)
    array.release_block(block)
    assert not array.is_block_bad(block)
    assert array.is_block_free(block)


def test_mark_bad_requires_free_block(array):
    block = array.allocate_block(0)
    with pytest.raises(FlashStateError):
        array.mark_bad(block)


def test_ftl_survives_with_bad_blocks(small_geometry, timing):
    """An FTL keeps working as worn blocks retire (capacity shrinks)."""
    from repro.ftl.pagemap import PageMapFtl

    ftl = PageMapFtl(small_geometry, timing)
    manager = BadBlockManager(ftl.array, rated_cycles=20, endurance_spread=0.1, factory_bad_rate=0.02, seed=3)
    rng = random.Random(90)
    for i in range(4000):
        ftl.write_page(rng.randrange(int(small_geometry.num_lpns * 0.5)), float(i))
    ftl.verify_integrity()
    assert manager.retired_fraction() >= 0.0
    assert 0.0 <= manager.remaining_life_fraction() <= 1.0


def test_remaining_life_decreases_with_wear(array):
    manager = BadBlockManager(array, rated_cycles=100, factory_bad_rate=0.0)
    fresh = manager.remaining_life_fraction()
    block = array.allocate_block(0)
    for _ in range(50):
        array.erase(block)
    assert manager.remaining_life_fraction() < fresh


def test_manager_validation(array):
    with pytest.raises(ValueError):
        BadBlockManager(array, rated_cycles=0)
    with pytest.raises(ValueError):
        BadBlockManager(array, endurance_spread=1.0)
    with pytest.raises(ValueError):
        BadBlockManager(array, factory_bad_rate=1.0)


# ---- endurance arithmetic ---------------------------------------------------------


def test_tbw_scales_inversely_with_wa():
    geom = SSDGeometry()
    wa1 = estimate_endurance(geom, 1.0)
    wa4 = estimate_endurance(geom, 4.0)
    assert wa1.tbw == pytest.approx(4 * wa4.tbw)


def test_lifetime_math():
    geom = SSDGeometry()  # 8 GB
    est = estimate_endurance(geom, 2.0, rated_cycles=3000)
    # the host budget spread over five years, in drive writes per day
    assert est.dwpd(5.0) == pytest.approx(
        est.total_bytes_writable / (5 * 365 * est.capacity_bytes)
    )
    assert est.dwpd(5.0) > 0


def test_endurance_validation():
    geom = SSDGeometry()
    with pytest.raises(ValueError):
        estimate_endurance(geom, 0.5)
    with pytest.raises(ValueError):
        estimate_endurance(geom, 1.0, rated_cycles=0)
    est = estimate_endurance(geom, 1.0)
    with pytest.raises(ValueError):
        est.dwpd(0)


def test_row_format():
    est = estimate_endurance(SSDGeometry(), 1.5)
    row = est.row()
    assert row["WA"] == 1.5
    assert row["TBW"] > 0
