"""Global Translation Directory: tvpn arithmetic and lookups."""

import pytest

from repro.ftl.gtd import GlobalTranslationDirectory


def test_entries_per_tpage_from_page_size():
    gtd = GlobalTranslationDirectory(num_lpns=10000, page_size=2048)
    assert gtd.entries_per_tpage == 512
    assert gtd.num_tpages == 20  # ceil(10000 / 512)


def test_tvpn_of_groups_consecutive_lpns():
    gtd = GlobalTranslationDirectory(num_lpns=1024, page_size=256)  # 64 entries
    assert gtd.tvpn_of(0) == 0
    assert gtd.tvpn_of(63) == 0
    assert gtd.tvpn_of(64) == 1
    assert gtd.tvpn_of(1023) == 15


def test_lpns_of_tvpn_inverse():
    gtd = GlobalTranslationDirectory(num_lpns=1024, page_size=256)
    for tvpn in range(gtd.num_tpages):
        first = tvpn * gtd.entries_per_tpage
        for lpn in range(first, first + gtd.entries_per_tpage):
            assert gtd.tvpn_of(lpn) == tvpn


def test_unmapped_by_default():
    gtd = GlobalTranslationDirectory(num_lpns=100, page_size=256)
    assert not gtd.is_mapped(0)
    assert gtd.lookup(0) == -1
    assert not any(gtd.is_mapped(t) for t in range(gtd.num_tpages))


def test_update_and_lookup():
    gtd = GlobalTranslationDirectory(num_lpns=100, page_size=256)
    gtd.update(1, 777)
    assert gtd.is_mapped(1)
    assert gtd.lookup(1) == 777
    gtd.update(1, 888)
    assert gtd.lookup(1) == 888
    assert [t for t in range(gtd.num_tpages) if gtd.is_mapped(t)] == [1]


def test_tiny_page_size_floor():
    gtd = GlobalTranslationDirectory(num_lpns=8, page_size=2)
    assert gtd.entries_per_tpage >= 1


def test_invalid_num_lpns():
    with pytest.raises(ValueError):
        GlobalTranslationDirectory(num_lpns=0, page_size=2048)
