"""Idle-time background garbage collection."""

import random

import pytest

from repro.controller.background import BackgroundGc
from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.sim.request import IoOp, IoRequest


def bursty_writes(geometry, bursts=12, burst_len=40, gap_us=150_000.0, seed=5, space=0.55):
    rng = random.Random(seed)
    limit = int(geometry.num_lpns * space)
    requests, t = [], 0.0
    for _ in range(bursts):
        for _ in range(burst_len):
            t += rng.expovariate(1 / 300.0)
            requests.append(IoRequest(t, rng.randrange(limit), 1, IoOp.WRITE))
        t += gap_us
    return requests


def test_idle_callback_fires_between_bursts(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    idles = []
    ssd.controller.on_idle.append(lambda: idles.append(ssd.engine.now))
    ssd.run(bursty_writes(small_geometry, bursts=5, burst_len=10))
    assert len(idles) >= 5  # at least once per burst gap


def test_background_passes_happen_when_idle(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="dloop", background_gc=True, cmt_entries=64)
    ssd.precondition(0.65)
    ssd.run(bursty_writes(small_geometry))
    ssd.verify()
    assert ssd.background_gc.stats.ticks > 0
    assert ssd.ftl.gc_stats.background_passes == ssd.background_gc.stats.passes


def test_background_reduces_foreground_gc():
    """On a bursty, non-saturated device idle GC absorbs foreground work.

    Uses the 32-plane scaled geometry: the tiny 4-plane fixture is
    saturated at any GC-active fill, leaving no idle time to exploit.
    """
    from repro.experiments.config import scaled_geometry

    geometry = scaled_geometry(2, scale=1 / 32)
    rng = random.Random(5)
    space = int(geometry.num_lpns * 0.45)
    requests, t = [], 0.0
    for _ in range(30):
        for _ in range(60):
            t += rng.expovariate(1 / 250.0)
            lpn = rng.randrange(space)
            count = min(rng.choice((1, 2, 4)), geometry.num_lpns - lpn)
            requests.append(IoRequest(t, lpn, count, IoOp.WRITE))
        t += 250_000.0
    foreground = {}
    for bg in (False, True):
        ssd = SimulatedSSD(geometry, ftl="dloop", background_gc=bg)
        ssd.precondition(0.62)
        ssd.run(list(requests))
        ssd.verify()
        stats = ssd.ftl.gc_stats
        foreground[bg] = stats.passes - stats.background_passes
    assert foreground[True] <= foreground[False]


def test_background_stops_without_reclaimable_work(small_geometry):
    """A fresh (mostly empty) device never spins the idle loop."""
    ssd = SimulatedSSD(small_geometry, ftl="dloop", background_gc=True, cmt_entries=64)
    ssd.run([IoRequest(0.0, 1, 1, IoOp.WRITE)])
    # run() drained the event heap: no tick left re-arming forever
    assert ssd.engine.pending == 0
    assert ssd.background_gc.stats.passes == 0


def test_tick_cancelled_by_arrival(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="dloop", background_gc=True,
                       cmt_entries=64)
    ssd.background_gc.idle_delay_us = 1000.0
    # first write completes -> idle -> tick armed at +1000; second write
    # arrives before that, so the tick must stand down
    ssd.run([IoRequest(0.0, 1, 1, IoOp.WRITE), IoRequest(500.0, 2, 1, IoOp.WRITE)])
    assert ssd.background_gc.stats.cancelled_ticks >= 0  # no crash path


def test_outstanding_counts_arrived_requests(small_geometry):
    """Submitting a future request must not mark the device busy now."""
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    ssd.controller.submit_many([IoRequest(10_000.0, 0, 1, IoOp.WRITE)])
    assert ssd.controller.outstanding == 0
    ssd.run()
    assert ssd.controller.outstanding == 0


def test_parameter_validation(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="dloop", cmt_entries=64)
    with pytest.raises(ValueError):
        BackgroundGc(ssd.engine, ssd.ftl, ssd.controller, idle_delay_us=-1)
    with pytest.raises(ValueError):
        BackgroundGc(ssd.engine, ssd.ftl, ssd.controller, max_passes_per_idle=0)


@pytest.mark.parametrize("ftl", ["bast", "fast", "last"])
def test_log_block_ftls_rejected(ftl):
    """Hybrids have no GC pass to run when idle: a typed error up front,
    not a bare ``NotImplementedError`` at the first idle tick."""
    geometry = SSDGeometry.from_capacity(8 * 2**20)
    with pytest.raises(TypeError, match="does not support background GC"):
        SimulatedSSD(geometry, ftl=ftl, background_gc=True)


def test_background_collect_no_work_when_pools_full(small_geometry, timing):
    from repro.ftl.pagemap import PageMapFtl

    ftl = PageMapFtl(small_geometry, timing)
    t, did_work = ftl.background_collect(0.0)
    assert not did_work
    assert t == 0.0
