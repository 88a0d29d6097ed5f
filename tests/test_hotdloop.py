"""Hot-plane-aware DLOOP (the paper's Section VI future work)."""

import random

import pytest

from repro.core.hotdloop import HotPlaneDloopFtl


@pytest.fixture
def ftl(small_geometry, timing):
    return HotPlaneDloopFtl(
        small_geometry, timing, cmt_entries=64, rebalance_period=200
    )


def test_total_overprovisioning_budget_conserved(ftl):
    """Parked + active extras always equal the uniform budget."""
    geom = ftl.geometry
    rng = random.Random(21)
    hot = [lpn for lpn in range(0, geom.num_lpns, geom.num_planes)][:20]  # plane 0 only
    for i in range(1000):
        ftl.write_page(rng.choice(hot), float(i))
    # no plane parks below the safety margin
    for plane in range(ftl.num_planes):
        assert ftl.array.free_block_count(plane) >= 1


def test_hot_plane_keeps_more_extras(ftl):
    """A plane receiving all writes should end up parking the least."""
    geom = ftl.geometry
    rng = random.Random(22)
    hot_plane = 2
    hot = [lpn for lpn in range(hot_plane, geom.num_lpns, geom.num_planes)][:20]
    for i in range(1500):
        ftl.write_page(rng.choice(hot), float(i))
    parked = [len(p) for p in ftl._parked]
    assert parked[hot_plane] == min(parked)
    assert ftl.rebalances > 0


def test_rebalance_decays_history(ftl):
    geom = ftl.geometry
    rng = random.Random(23)
    for i in range(500):
        ftl.write_page(rng.randrange(int(geom.num_lpns * 0.7)), float(i))
    heat_after = ftl._write_heat.sum()
    total_writes = ftl.stats.host_writes
    assert heat_after < total_writes  # halving applied at rebalances


def test_integrity_with_rebalancing(ftl):
    rng = random.Random(24)
    for i in range(2500):
        ftl.write_page(rng.randrange(int(ftl.geometry.num_lpns * 0.7)), float(i))
    ftl.verify_integrity()


def test_parked_blocks_stay_out_of_allocation(ftl):
    rng = random.Random(25)
    for i in range(1500):
        ftl.write_page(rng.randrange(int(ftl.geometry.num_lpns * 0.7)), float(i))
    for plane, parked in enumerate(ftl._parked):
        for block in parked:
            assert not ftl.array.is_block_free(block)
            assert ftl.array.block_write_ptr[block] == 0  # never written


def test_invalid_reserved_fraction(small_geometry, timing):
    with pytest.raises(ValueError):
        HotPlaneDloopFtl(small_geometry, timing, reserved_fraction=1.5)
