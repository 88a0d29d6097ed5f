"""Power-loss recovery: rebuild mapping structures from flash state."""

import random

import numpy as np
import pytest

from repro.ftl.registry import create_ftl


def churn(ftl, n=2000, seed=77):
    rng = random.Random(seed)
    space = int(ftl.geometry.num_lpns * 0.6)
    for i in range(n):
        lpn = rng.randrange(space)
        roll = rng.random()
        if roll < 0.6:
            ftl.write_page(lpn, float(i))
        elif roll < 0.7:
            ftl.trim_page(lpn, float(i))
        else:
            ftl.read_page(lpn, float(i))


@pytest.mark.parametrize("name", ["dloop", "dftl", "fast", "bast", "last", "pagemap"])
def test_rebuild_recovers_exact_mapping(small_geometry, timing, name):
    ftl = create_ftl(name, small_geometry, timing)
    churn(ftl)
    before = ftl.page_table_np.copy()
    recovered = ftl.rebuild_mapping()
    assert np.array_equal(ftl.page_table_np, before)
    assert recovered == int(np.count_nonzero(before != -1))
    ftl.verify_integrity()


def test_rebuild_recovers_gtd(small_geometry, timing):
    ftl = create_ftl("dloop", small_geometry, timing, cmt_entries=64)
    churn(ftl)
    gtd_view = np.frombuffer(ftl.gtd.tpage_ppn, dtype=np.int32)
    gtd_before = gtd_view.copy()
    # corrupt the SRAM state, then recover
    ftl.page_table_np.fill(-1)
    gtd_view.fill(-1)
    ftl.rebuild_mapping()
    # every materialised translation page found again
    assert np.array_equal(gtd_view != -1, gtd_before != -1)
    assert np.array_equal(
        gtd_view[gtd_before != -1], gtd_before[gtd_before != -1]
    )
    ftl.verify_integrity()


def test_rebuild_clears_volatile_cmt(small_geometry, timing):
    ftl = create_ftl("dftl", small_geometry, timing, cmt_entries=64)
    churn(ftl, n=800)
    assert len(ftl.cmt) > 0
    ftl.rebuild_mapping()
    assert len(ftl.cmt) == 0  # SRAM cache did not survive the power cycle


def test_device_usable_after_recovery(small_geometry, timing):
    """Writes and reads continue correctly on the rebuilt state."""
    ftl = create_ftl("dloop", small_geometry, timing, cmt_entries=64)
    churn(ftl, n=1500)
    ftl.rebuild_mapping()
    rng = random.Random(88)
    space = int(small_geometry.num_lpns * 0.6)
    for i in range(800):
        ftl.write_page(rng.randrange(space), float(i))
    ftl.verify_integrity()


def test_rebuild_on_fresh_device(small_geometry, timing):
    ftl = create_ftl("pagemap", small_geometry, timing)
    assert ftl.rebuild_mapping() == 0
    assert not ftl.mapped_lpns().size
