"""Hot/cold DLOOP variant: dual write frontiers per plane."""

import random

import pytest

from repro.core.dloop import DloopFtl
from repro.core.hcdloop import HotColdDloopFtl


@pytest.fixture
def ftl(small_geometry, timing):
    return HotColdDloopFtl(small_geometry, timing, cmt_entries=64, hot_window=64)


def skewed_load(ftl, n=3000, seed=6, hot_count=40, hot_prob=0.7):
    rng = random.Random(seed)
    hot = list(range(hot_count))
    space = int(ftl.geometry.num_lpns * 0.6)
    for i in range(n):
        lpn = rng.choice(hot) if rng.random() < hot_prob else rng.randrange(space)
        ftl.write_page(lpn, float(i))


def test_first_write_is_cold_rewrite_is_hot(ftl):
    ftl.write_page(5, 0.0)
    assert ftl.cold_writes == 1 and ftl.hot_writes == 0
    ftl.write_page(5, 1.0)
    assert ftl.hot_writes == 1


def test_hot_and_cold_use_distinct_blocks(ftl):
    ftl.write_page(5, 0.0)   # cold
    ftl.write_page(5, 1.0)   # hot
    plane = 5 % ftl.num_planes  # Eq. 1
    cold_block = ftl.allocators[plane].current_block
    hot_block = ftl.hot_allocators[plane].current_block
    assert cold_block is not None and hot_block is not None
    assert cold_block != hot_block


def test_window_expiry_demotes_to_cold(small_geometry, timing):
    ftl = HotColdDloopFtl(small_geometry, timing, cmt_entries=64, hot_window=4)
    ftl.write_page(1, 0.0)
    for lpn in range(10, 20):  # push lpn 1 out of the window
        ftl.write_page(lpn, 0.0)
    cold_before = ftl.cold_writes
    ftl.write_page(1, 99.0)
    assert ftl.cold_writes == cold_before + 1


def test_striping_preserved(ftl):
    skewed_load(ftl, n=400)
    for lpn in ftl.mapped_lpns():
        if ftl.gc_stats.emergency_passes:
            break
        plane = ftl.codec.ppn_to_plane(ftl.current_ppn(int(lpn)))
        assert plane == int(lpn) % ftl.num_planes


def test_reduces_gc_work_on_skewed_load(small_geometry, timing):
    plain = DloopFtl(small_geometry, timing, cmt_entries=64)
    split = HotColdDloopFtl(small_geometry, timing, cmt_entries=64, hot_window=64)
    skewed_load(plain, n=3500)
    skewed_load(split, n=3500)
    assert split.gc_stats.moved_pages < plain.gc_stats.moved_pages
    assert split.gc_stats.wasted_pages <= plain.gc_stats.wasted_pages
    split.verify_integrity()
    plain.verify_integrity()


def test_integrity_under_churn(ftl):
    skewed_load(ftl, n=4000, seed=7)
    ftl.verify_integrity()
    assert ftl.hot_writes + ftl.cold_writes > 0


def test_window_validation(small_geometry, timing):
    with pytest.raises(ValueError):
        HotColdDloopFtl(small_geometry, timing, hot_window=0)


def test_registry(small_geometry):
    from repro.ftl.registry import create_ftl

    assert isinstance(create_ftl("dloop-hc", small_geometry), HotColdDloopFtl)
