"""SSD geometry arithmetic and the paper's Table I configuration."""

import pytest

from repro.flash.geometry import GB, KB, MAX_PAGES, SSDGeometry


def test_paper_default_matches_section_iii():
    geom = SSDGeometry()
    assert geom.num_planes == 32
    # "Assume that one plane has 2,048 data blocks plus such extra blocks."
    assert geom.blocks_per_plane == 2048
    assert geom.capacity_bytes == 8 * GB
    assert geom.page_size == 2 * KB
    assert geom.pages_per_block == 64


def test_extra_blocks_rounded_up():
    geom = SSDGeometry(blocks_per_plane=100, extra_blocks_percent=2.5)
    assert geom.extra_blocks_per_plane == 3
    assert geom.physical_blocks_per_plane == 103


def test_capacity_excludes_extra_blocks():
    base = SSDGeometry(extra_blocks_percent=0.0)
    with_extra = SSDGeometry(extra_blocks_percent=10.0)
    assert base.capacity_bytes == with_extra.capacity_bytes
    assert with_extra.num_physical_blocks > base.num_physical_blocks


def test_plane_to_channel_is_interleaved(small_geometry):
    channels = small_geometry.channels
    for plane in range(small_geometry.num_planes):
        assert small_geometry.plane_to_channel(plane) == plane % channels


def test_from_capacity_round_trip():
    geom = SSDGeometry.from_capacity(8 * GB)
    assert geom.capacity_bytes == 8 * GB
    assert geom.blocks_per_plane == 2048


def test_from_capacity_scales_blocks_not_planes():
    g2 = SSDGeometry.from_capacity(2 * GB)
    g64 = SSDGeometry.from_capacity(64 * GB)
    assert g2.num_planes == g64.num_planes == 32
    assert g64.blocks_per_plane == 32 * g2.blocks_per_plane


def test_from_capacity_too_small_raises():
    with pytest.raises(ValueError):
        SSDGeometry.from_capacity(1024)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SSDGeometry(channels=0)
    with pytest.raises(ValueError):
        SSDGeometry(pages_per_block=63)  # must be even for parity rule
    with pytest.raises(ValueError):
        SSDGeometry(extra_blocks_percent=-1)


def test_describe_reports_table1_fields():
    desc = SSDGeometry().describe()
    assert desc["SSD capacity (GB)"] == 8.0
    assert desc["Page size (KB)"] == 2.0
    assert desc["Pages per block"] == 64
    assert desc["Percentage of extra blocks"] == 3.0


def test_die_major_plane_order():
    geom = SSDGeometry(plane_order="die-major")
    planes_per_channel = geom.num_planes // geom.channels
    # consecutive planes share a channel under die-major ordering
    assert geom.plane_to_channel(0) == geom.plane_to_channel(1)
    assert geom.plane_to_channel(0) != geom.plane_to_channel(planes_per_channel)


def test_channel_interleaved_spreads_consecutive_planes():
    geom = SSDGeometry()  # default ordering
    channels = {geom.plane_to_channel(p) for p in range(geom.channels)}
    assert len(channels) == geom.channels


def test_invalid_plane_order_rejected():
    with pytest.raises(ValueError):
        SSDGeometry(plane_order="diagonal")


def _one_plane(blocks_per_plane, extra_blocks_percent=0.0):
    return SSDGeometry(
        channels=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=blocks_per_plane, pages_per_block=64,
        extra_blocks_percent=extra_blocks_percent,
    )


def test_page_count_bound_of_the_four_byte_stores():
    assert MAX_PAGES == 2**31
    blocks = MAX_PAGES // 64
    with pytest.raises(ValueError, match=r"2\*\*31"):
        _one_plane(blocks)  # exactly 2**31 physical pages (and LPNs)
    with pytest.raises(ValueError, match=r"2\*\*31"):
        _one_plane(blocks - 1, extra_blocks_percent=1.0)  # LPNs fit, pages do not
    just_under = _one_plane(blocks - 1)
    assert just_under.num_physical_pages == just_under.num_lpns == MAX_PAGES - 64
