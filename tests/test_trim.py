"""TRIM / discard support."""

import random

import pytest

from repro.controller.device import SimulatedSSD
from repro.flash.address import PageState
from repro.ftl.registry import create_ftl
from repro.sim.request import IoOp, IoRequest


def test_trim_invalidates_and_unmaps(small_geometry, timing):
    ftl = create_ftl("pagemap", small_geometry, timing)
    ftl.write_page(5, 0.0)
    ppn = ftl.current_ppn(5)
    ftl.trim_page(5, 1.0)
    assert ftl.current_ppn(5) == -1
    assert ftl.array.state_of(ppn) == PageState.INVALID
    assert ftl.stats.host_trims == 1
    ftl.verify_integrity()


def test_trim_unmapped_is_noop(small_geometry, timing):
    ftl = create_ftl("pagemap", small_geometry, timing)
    end = ftl.trim_page(9, 3.0)
    assert end == 3.0
    assert ftl.stats.host_trims == 0


def test_read_after_trim_is_unmapped(small_geometry, timing):
    ftl = create_ftl("dloop", small_geometry, timing, cmt_entries=64)
    ftl.write_page(2, 0.0)
    ftl.trim_page(2, 1.0)
    before = ftl.stats.unmapped_reads
    ftl.read_page(2, 2.0)
    assert ftl.stats.unmapped_reads == before + 1


@pytest.mark.parametrize("name", ["dloop", "dftl", "fast", "bast", "last", "pagemap"])
def test_trim_integrity_all_ftls(small_geometry, timing, name):
    ftl = create_ftl(name, small_geometry, timing)
    rng = random.Random(13)
    space = int(small_geometry.num_lpns * 0.6)
    for i in range(1500):
        lpn = rng.randrange(space)
        roll = rng.random()
        if roll < 0.55:
            ftl.write_page(lpn, float(i))
        elif roll < 0.75:
            ftl.trim_page(lpn, float(i))
        else:
            ftl.read_page(lpn, float(i))
    ftl.verify_integrity()


def test_trim_request_through_controller(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    ssd.run([
        IoRequest(0.0, 0, 4, IoOp.WRITE),
        IoRequest(1000.0, 0, 2, IoOp.TRIM),
    ])
    assert ssd.stats.pages_trimmed == 2
    assert ssd.ftl.current_ppn(0) == -1
    assert ssd.ftl.current_ppn(2) != -1
    ssd.verify()


def test_trim_relieves_gc_pressure(small_geometry):
    """Discarded space becomes reclaimable garbage: trimming the cold
    half of the footprint reduces GC work on subsequent writes."""
    import random as _random

    def churn(ssd, trim_first):
        rng = _random.Random(15)
        space = int(small_geometry.num_lpns * 0.6)
        ssd.precondition(0.65)
        requests = []
        t = 0.0
        if trim_first:
            requests.append(IoRequest(0.0, space, small_geometry.num_lpns - space - 1, IoOp.TRIM))
        for i in range(1500):
            t += 400.0
            requests.append(IoRequest(t, rng.randrange(space), 1, IoOp.WRITE))
        ssd.run(requests)
        ssd.verify()
        return ssd.ftl.gc_stats.moved_pages

    plain = SimulatedSSD(small_geometry, ftl="dloop", cmt_entries=64)
    trimmed = SimulatedSSD(small_geometry, ftl="dloop", cmt_entries=64)
    moved_plain = churn(plain, trim_first=False)
    moved_trimmed = churn(trimmed, trim_first=True)
    assert moved_trimmed <= moved_plain
