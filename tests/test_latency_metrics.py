"""Latency histogram, throughput windows, amplification, ASCII charts."""

import numpy as np
import pytest

from repro.metrics.amplification import AmplificationReport
from repro.metrics.ascii_chart import hbar_chart, series_chart, sparkline
from repro.metrics.latency import LatencyHistogram


# ---- histogram ---------------------------------------------------------------


def test_histogram_counts_and_mean():
    h = LatencyHistogram()
    for v in (10, 100, 1000):
        h.record(v)
    assert h.total == 3
    assert h.mean_us == pytest.approx(370.0)
    assert h.max_seen == 1000


def test_histogram_percentile_accuracy():
    h = LatencyHistogram(min_us=1, max_us=1e6, buckets_per_decade=20)
    rng = np.random.default_rng(0)
    samples = rng.lognormal(mean=5, sigma=1, size=20000)
    for value in samples:
        h.record(value)
    for q in (50, 95, 99):
        exact = float(np.percentile(samples, q))
        approx = h.percentile(q)
        assert approx == pytest.approx(exact, rel=0.15)


def test_histogram_clamps_out_of_range():
    h = LatencyHistogram(min_us=10, max_us=1000)
    h.record(1)      # below range -> first bucket
    h.record(99999)  # above range -> last bucket
    assert h.total == 2
    assert h.counts[0] == 1
    assert h.counts[-1] == 1


def test_histogram_summary_keys():
    h = LatencyHistogram()
    h.record(50)
    summary = h.summary()
    assert set(summary) == {"count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"}


def test_histogram_validation():
    with pytest.raises(ValueError):
        LatencyHistogram(min_us=0)
    with pytest.raises(ValueError):
        LatencyHistogram(min_us=10, max_us=5)
    h = LatencyHistogram()
    with pytest.raises(ValueError):
        h.record(-1)
    with pytest.raises(ValueError):
        h.percentile(0)


def test_empty_histogram():
    h = LatencyHistogram()
    assert h.mean_us == 0.0
    assert h.percentile(99) == 0.0


# ---- amplification ---------------------------------------------------------------


def test_write_amplification_counts_copybacks_and_waste():
    report = AmplificationReport(
        host_pages_written=100,
        host_pages_read=50,
        flash_programs=120,
        flash_reads=80,
        copybacks=30,
        skipped_pages=10,
    )
    assert report.write_amplification == pytest.approx(1.6)
    assert report.read_amplification == pytest.approx(1.6)
    row = report.row()
    assert row["WA"] == 1.6


def test_amplification_zero_host_io():
    report = AmplificationReport(0, 0, 10, 10, 0, 0)
    assert report.write_amplification == 0.0
    assert report.read_amplification == 0.0


def test_amplification_from_simulation(small_geometry, timing):
    from repro.controller.device import SimulatedSSD
    from repro.metrics.amplification import amplification
    from repro.sim.request import IoOp, IoRequest
    import random

    ssd = SimulatedSSD(small_geometry, timing, ftl="dloop")
    ssd.precondition(0.7)
    rng = random.Random(61)
    reqs = [
        IoRequest(float(i * 50), rng.randrange(int(small_geometry.num_lpns * 0.6)), 1, IoOp.WRITE)
        for i in range(2000)
    ]
    ssd.run(reqs)
    report = amplification(ssd.stats, ssd.counters)
    assert report.host_pages_written == 2000
    assert report.write_amplification >= 1.0  # every host write programs at least once


# ---- ascii charts ---------------------------------------------------------------------


def test_hbar_chart_renders_all_labels():
    chart = hbar_chart({"dloop": 1.0, "dftl": 2.0, "fast": 8.0}, width=10, unit=" ms")
    lines = chart.splitlines()
    assert len(lines) == 3
    assert "dloop" in lines[0] and "8 ms" in lines[2]
    # the largest value has the longest bar
    assert lines[2].count("█") > lines[0].count("█")


def test_hbar_chart_empty_and_invalid():
    assert hbar_chart({}) == "(no data)"
    with pytest.raises(ValueError):
        hbar_chart({"x": -1})


def test_sparkline_shape():
    line = sparkline([1, 2, 3, 4, 5])
    assert len(line) == 5
    assert line[0] == "▁" and line[-1] == "█"
    assert sparkline([]) == ""
    assert sparkline([3, 3, 3]) == "▁▁▁"


def test_series_chart_includes_ranges():
    chart = series_chart({"dloop": [1, 2], "fast": [10, 5]}, x_labels=[2, 8], title="demo")
    assert "demo" in chart
    assert "[1 .. 2]" in chart
    assert "[5 .. 10]" in chart
