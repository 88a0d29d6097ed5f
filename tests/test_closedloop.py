"""Closed-loop (fixed queue depth) driving."""

import pytest

from repro.controller.closedloop import ClosedLoopDriver
from repro.controller.device import SimulatedSSD


def simple_ops(n, stride=1, write=True):
    return [((i * stride) % 400, 1, write) for i in range(n)]


def test_all_ops_complete(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    driver = ClosedLoopDriver(ssd, simple_ops(200), iodepth=4)
    result = driver.run()
    assert result.completed == 200
    assert result.pages_written == 200
    assert result.iops > 0
    ssd.verify()


def test_iodepth_respected(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    peak = [0]
    original = ssd.controller._arrive

    def spy(request):
        original(request)
        peak[0] = max(peak[0], ssd.controller.outstanding)

    ssd.controller._arrive = spy
    ClosedLoopDriver(ssd, simple_ops(100), iodepth=3).run()
    assert peak[0] <= 3


def test_deeper_queue_not_slower(small_geometry):
    """More parallelism exposed -> throughput must not drop."""
    results = {}
    for depth in (1, 8):
        ssd = SimulatedSSD(small_geometry, ftl="pagemap")
        result = ClosedLoopDriver(ssd, simple_ops(400), iodepth=depth).run()
        results[depth] = result.iops
    assert results[8] >= results[1]


def test_short_stream_below_iodepth(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    result = ClosedLoopDriver(ssd, simple_ops(2), iodepth=16).run()
    assert result.completed == 2


def test_bandwidth_calculation(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    result = ClosedLoopDriver(ssd, simple_ops(100), iodepth=4).run()
    mb_s = result.bandwidth_mb_s(small_geometry.page_size)
    assert mb_s > 0
    row = result.row(small_geometry.page_size)
    assert "IOPS" in row and "MB/s" in row


def test_iodepth_validation(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    with pytest.raises(ValueError):
        ClosedLoopDriver(ssd, simple_ops(10), iodepth=0)


def test_closed_loop_with_dloop_gc(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="dloop", cmt_entries=64)
    ssd.precondition(0.6)
    import random

    rng = random.Random(9)
    ops = [(rng.randrange(int(small_geometry.num_lpns * 0.6)), 1, True) for _ in range(800)]
    result = ClosedLoopDriver(ssd, ops, iodepth=8).run()
    assert result.completed == 800
    ssd.verify()
