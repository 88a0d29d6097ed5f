"""Static wear leveler on top of the page-mapping FTLs."""

import random

import pytest

from repro.core.dloop import DloopFtl
from repro.ftl.fast import FastFtl
from repro.ftl.pagemap import PageMapFtl
from repro.ftl.wearlevel import StaticWearLeveler


def wear_gap(ftl):
    counts = ftl.array.block_erase_count_np
    return int(counts.max() - counts.min())


def hammer(ftl, leveler, n=3000, seed=51, hot_planes=(0,)):
    """Concentrate updates on a few planes to skew wear."""
    rng = random.Random(seed)
    planes = ftl.geometry.num_planes
    hot_lpns = [
        lpn
        for lpn in range(int(ftl.geometry.num_lpns * 0.7))
        if lpn % planes in hot_planes
    ]
    t = 0.0
    for i in range(n):
        t = ftl.write_page(rng.choice(hot_lpns), float(i))
        t = leveler.maybe_level(t)
    return t


def test_rejects_hybrid_ftls(small_geometry, timing):
    with pytest.raises(TypeError):
        StaticWearLeveler(FastFtl(small_geometry, timing))


def test_parameter_validation(small_geometry, timing):
    ftl = PageMapFtl(small_geometry, timing)
    with pytest.raises(ValueError):
        StaticWearLeveler(ftl, gap_threshold=0)
    with pytest.raises(ValueError):
        StaticWearLeveler(ftl, check_interval_erases=0)


def test_no_migration_below_threshold(small_geometry, timing):
    ftl = PageMapFtl(small_geometry, timing)
    leveler = StaticWearLeveler(ftl, gap_threshold=10_000, check_interval_erases=1)
    hammer(ftl, leveler, n=1500)
    assert leveler.stats.migrations == 0


def test_migration_reduces_wear_gap(small_geometry, timing):
    """Skewed updates with leveling end with a tighter erase spread."""
    ftl_plain = PageMapFtl(small_geometry, timing)
    plain_leveler = StaticWearLeveler(ftl_plain, gap_threshold=10_000, check_interval_erases=1)
    hammer(ftl_plain, plain_leveler, n=4000)

    ftl_level = PageMapFtl(small_geometry, timing)
    leveler = StaticWearLeveler(ftl_level, gap_threshold=4, check_interval_erases=8)
    hammer(ftl_level, leveler, n=4000)

    assert leveler.stats.migrations > 0
    assert wear_gap(ftl_level) <= wear_gap(ftl_plain)
    ftl_level.verify_integrity()


def test_migrated_data_stays_reachable(small_geometry, timing):
    ftl = DloopFtl(small_geometry, timing, cmt_entries=64)
    leveler = StaticWearLeveler(ftl, gap_threshold=3, check_interval_erases=4)
    hammer(ftl, leveler, n=3000, hot_planes=(0, 1))
    assert leveler.stats.moved_pages > 0
    ftl.verify_integrity()


def test_check_interval_limits_scans(small_geometry, timing):
    ftl = PageMapFtl(small_geometry, timing)
    leveler = StaticWearLeveler(ftl, gap_threshold=1, check_interval_erases=10_000)
    hammer(ftl, leveler, n=1500)
    assert leveler.stats.checks <= 1


def test_leveling_advances_time(small_geometry, timing):
    ftl = PageMapFtl(small_geometry, timing)
    leveler = StaticWearLeveler(ftl, gap_threshold=2, check_interval_erases=2)
    end = hammer(ftl, leveler, n=3000)
    assert end > 0
    if leveler.stats.migrations:
        assert leveler.stats.moved_pages >= 0
