"""Run-statistics time-series sampling."""

import pytest

from repro.controller.device import SimulatedSSD
from repro.metrics.ascii_chart import series_chart
from repro.obs.sampler import StatsSampler
from repro.sim.request import IoOp, IoRequest


def test_sampler_collects_on_grid(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap", stats_interval_us=1000.0)
    requests = [IoRequest(float(i * 500), i % 50, 1, IoOp.WRITE) for i in range(50)]
    ssd.run(requests)
    stats = ssd.run_stats
    assert stats is not None
    assert len(stats.times_us) >= 10
    # aligned series
    lengths = {len(v) for v in stats.series().values()}
    assert lengths == {len(stats.times_us)}


def test_series_track_activity(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap", stats_interval_us=500.0)
    requests = [IoRequest(float(i * 250), i % 64, 1, IoOp.WRITE) for i in range(200)]
    ssd.run(requests)
    t = ssd.run_stats
    assert t.flash_programs[-1] >= 200
    assert max(t.total_free_blocks) >= min(t.total_free_blocks)
    assert t.flash_programs == sorted(t.flash_programs)  # cumulative


def test_sampler_does_not_spin_forever(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap", stats_interval_us=100.0)
    ssd.run([IoRequest(0.0, 0, 1, IoOp.WRITE)])
    assert ssd.engine.pending == 0  # run() terminated


def test_render_sparklines(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap", stats_interval_us=1000.0)
    ssd.run([IoRequest(float(i * 400), i, 1, IoOp.WRITE) for i in range(30)])
    text = series_chart(ssd.run_stats.series(), title="demo")
    assert "demo" in text
    assert "queue_depth" in text


def test_interval_validation(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    with pytest.raises(ValueError):
        StatsSampler(ssd.engine, ssd.ftl, ssd.controller, interval_us=0)
