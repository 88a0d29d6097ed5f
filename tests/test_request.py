"""IoRequest model validation and derived properties."""

import pytest

from repro.sim.request import IoOp, IoRequest


def test_lpns_covers_the_request():
    r = IoRequest(0.0, 10, 4, IoOp.READ)
    assert list(range(r.start_lpn, r.start_lpn + r.page_count)) == [10, 11, 12, 13]


def test_single_page_request():
    r = IoRequest(5.0, 0, 1, IoOp.WRITE)
    assert list(range(r.start_lpn, r.start_lpn + r.page_count)) == [0]
    assert r.is_write


def test_response_time_requires_completion():
    r = IoRequest(10.0, 0, 1, IoOp.READ)
    with pytest.raises(RuntimeError):
        _ = r.response_us
    r.completion_us = 35.0
    assert r.response_us == 25.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(arrival_us=-1.0, start_lpn=0, page_count=1),
        dict(arrival_us=0.0, start_lpn=-5, page_count=1),
        dict(arrival_us=0.0, start_lpn=0, page_count=0),
    ],
)
def test_invalid_requests_rejected(kwargs):
    with pytest.raises(ValueError):
        IoRequest(op=IoOp.READ, **kwargs)


def test_is_write_flag():
    assert IoRequest(0.0, 0, 1, IoOp.WRITE).is_write
    assert not IoRequest(0.0, 0, 1, IoOp.READ).is_write
