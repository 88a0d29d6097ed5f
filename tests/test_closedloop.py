"""Closed-loop (fixed queue depth) driving: the admission window at
``queue_depth=N`` over requests that all arrive at 0."""

import random
import re

import pytest

from repro.cli import main
from repro.controller.device import SimulatedSSD
from repro.sim.request import IoOp, IoRequest


def simple_ops(n, write=True):
    op = IoOp.WRITE if write else IoOp.READ
    return [IoRequest(0.0, i % 400, 1, op) for i in range(n)]


def closed_loop(ssd, requests, depth):
    """Run ``requests`` at depth ``depth``; returns IOPS."""
    end = ssd.run_stream(iter(requests), queue_depth=depth)
    return ssd.stats.count / (end / 1e6)


def test_all_ops_complete(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    iops = closed_loop(ssd, simple_ops(200), 4)
    assert ssd.stats.count == 200
    assert ssd.stats.pages_written == 200
    assert iops > 0
    ssd.verify()


def test_iodepth_respected(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    closed_loop(ssd, simple_ops(100), 3)
    assert ssd.controller.peak_outstanding == 3


def test_deeper_queue_not_slower(small_geometry):
    """More parallelism exposed -> throughput must not drop."""
    results = {}
    for depth in (1, 8):
        ssd = SimulatedSSD(small_geometry, ftl="pagemap")
        results[depth] = closed_loop(ssd, simple_ops(400), depth)
    assert results[8] >= results[1]


def test_short_stream_below_iodepth(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    closed_loop(ssd, simple_ops(2), 16)
    assert ssd.stats.count == 2
    assert ssd.controller.peak_outstanding == 2


def test_responses_run_from_time_zero(small_geometry):
    """At depth 1 each request waits for its predecessor, and its
    response is its completion time: every request arrived at 0."""
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    requests = simple_ops(20)
    closed_loop(ssd, requests, 1)
    completions = [r.completion_us for r in requests]
    assert completions == sorted(completions) and len(set(completions)) == 20
    assert [r.response_us for r in requests] == completions


def test_bandwidth_calculation(capsys):
    """``simulate --iodepth`` reports IOPS and MB/s beside the usual rows."""
    code = main(["simulate", "--ftl", "pagemap", "--capacity-mb", "16",
                 "--requests", "100", "--precondition", "0", "--iodepth", "4"])
    assert code == 0
    rows = dict(re.split(r"\s{2,}", line.strip(), maxsplit=1)
                for line in capsys.readouterr().out.splitlines()[3:])
    assert float(rows["IOPS"]) > 0 and float(rows["MB/s"]) > 0
    assert rows["stream: queue_depth"] == "4"
    assert rows["stream: peak_outstanding"] == "4"


def test_iodepth_validation(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    with pytest.raises(ValueError):
        ssd.run_stream(iter(simple_ops(10)), queue_depth=0)


def test_closed_loop_with_dloop_gc(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="dloop", cmt_entries=64)
    ssd.precondition(0.6)
    rng = random.Random(9)
    requests = [IoRequest(0.0, rng.randrange(int(small_geometry.num_lpns * 0.6)), 1, IoOp.WRITE)
                for _ in range(800)]
    closed_loop(ssd, requests, 8)
    assert ssd.stats.count == 800
    ssd.verify()
