"""Controller: page splitting, completion accounting, byte alignment."""

import pytest

from repro.controller.device import SimulatedSSD
from repro.sim.request import IoOp, IoRequest
from repro.traces.model import TraceRequest
from repro.traces.stream import io_requests


@pytest.fixture
def ssd(small_geometry, timing):
    return SimulatedSSD(small_geometry, timing, ftl="pagemap")


def test_single_request_completes(ssd):
    ssd.run([IoRequest(0.0, 0, 1, IoOp.WRITE)])
    assert ssd.stats.count == 1
    assert ssd.stats.pages_written == 1
    assert ssd.stats.reservoir.values[0] > 0


def test_multi_page_request_splits(ssd):
    ssd.run([IoRequest(0.0, 0, 4, IoOp.WRITE)])
    assert ssd.stats.pages_written == 4
    assert ssd.stats.count == 1


def test_striped_request_faster_than_serial(small_geometry, timing):
    """Plane-level parallelism: N pages across N planes ~ 1 page's time."""
    striped = SimulatedSSD(small_geometry, timing, ftl="pagemap", striping="lpn")
    striped.run([IoRequest(0.0, 0, small_geometry.num_planes, IoOp.WRITE)])
    serial = SimulatedSSD(small_geometry, timing, ftl="pagemap", striping="roaming")
    serial.run([IoRequest(0.0, 0, small_geometry.num_planes, IoOp.WRITE)])
    assert striped.stats.reservoir.values[0] < serial.stats.reservoir.values[0]


def test_response_time_includes_queueing(ssd):
    # two writes to the same page arrive together; the second queues
    ssd.run([IoRequest(0.0, 0, 1, IoOp.WRITE),
             IoRequest(0.0, 0, 1, IoOp.WRITE)])
    r = sorted(ssd.stats.reservoir.values)
    assert r[1] > r[0]


def test_read_write_streams_separated(ssd):
    ssd.run([IoRequest(0.0, 0, 1, IoOp.WRITE),
             IoRequest(1000.0, 0, 1, IoOp.READ)])
    assert ssd.stats.writes.count == 1
    assert ssd.stats.reads.count == 1


def aligned(ssd, offset_bytes, size_bytes, is_write):
    """A byte-addressed request, page-aligned by :func:`io_requests`."""
    return next(io_requests([TraceRequest(0.0, offset_bytes, size_bytes, is_write)],
                            ssd.geometry))


def test_byte_request_page_alignment(ssd):
    page = ssd.geometry.page_size
    r = aligned(ssd, page + 1, 2 * page, True)
    # spans pages 1..3 (head of page 1, all of page 2, one byte of 3)
    assert r.start_lpn == 1
    assert r.page_count == 3


def test_byte_request_exact_page(ssd):
    page = ssd.geometry.page_size
    r = aligned(ssd, 2 * page, page, False)
    assert r.start_lpn == 2
    assert r.page_count == 1


def test_byte_request_sub_page(ssd):
    r = aligned(ssd, 10, 20, True)
    assert r.start_lpn == 0
    assert r.page_count == 1


def test_byte_request_zero_size_rejected(ssd):
    with pytest.raises(ValueError):
        aligned(ssd, 0, 0, True)


def test_outstanding_drains_to_zero(ssd):
    ssd.run([IoRequest(float(i), i, 1, IoOp.WRITE) for i in range(10)])
    assert ssd.controller.outstanding == 0


def test_mean_response_ms(ssd):
    ssd.run([IoRequest(0.0, 0, 1, IoOp.WRITE)])
    assert ssd.mean_response_ms() == pytest.approx(ssd.stats.reservoir.values[0] / 1000.0)


def test_requests_processed_in_arrival_order(ssd):
    done = []
    orig = ssd.ftl.write_page

    def spy(lpn, start):
        done.append(lpn)
        return orig(lpn, start)

    ssd.ftl.write_page = spy
    ssd.run([IoRequest(20.0, 2, 1, IoOp.WRITE),
             IoRequest(10.0, 1, 1, IoOp.WRITE)])
    assert done == [1, 2]
