"""Utilisation report."""

import pytest

from repro.flash.counters import FlashCounters
from repro.metrics.utilization import utilization


def test_utilization_fractions():
    counters = FlashCounters(2, 2)
    counters.channel_busy_us[:] = [50.0, 100.0]
    counters.plane_busy_us[:] = [25.0, 75.0]
    report = utilization(counters, duration_us=200.0)
    assert report.channel_utilization.tolist() == [0.25, 0.5]
    assert report.peak_channel == 0.5
    assert report.mean_plane == pytest.approx(0.25)
    assert report.bottleneck == "channel"


def test_plane_bound_bottleneck():
    counters = FlashCounters(2, 2)
    counters.plane_busy_us[:] = [180.0, 190.0]
    counters.channel_busy_us[:] = [10.0, 10.0]
    report = utilization(counters, duration_us=200.0)
    assert report.bottleneck == "plane"
    assert report.row()["plane_util_peak_%"] == 95.0


def test_utilization_validation():
    with pytest.raises(ValueError):
        utilization(FlashCounters(1, 1), duration_us=0)


def test_copyback_load_is_plane_bound(small_geometry, timing):
    """A copy-back-heavy phase shows plane-bound utilisation with idle bus."""
    from repro.flash.timekeeper import FlashTimekeeper

    clock = FlashTimekeeper(small_geometry, timing)
    end = 0.0
    for _ in range(10):
        end = max(end, clock.copy_back(0, 0.0))
    report = utilization(clock.counters, duration_us=end)
    assert report.mean_channel == 0.0
    assert report.peak_plane > 0.9

