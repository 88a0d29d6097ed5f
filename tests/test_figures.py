"""Figure rendering from sweep results."""

import numpy as np
import pytest

from repro.experiments.figures import (
    detect_axis,
    figure_series,
    render_figure,
    summarize_wins,
)
from repro.experiments.runner import SimulationResult
from repro.metrics.wear import WearStats


def make_result(trace, ftl, mean_ms, **extras):
    return SimulationResult(
        ftl=ftl,
        trace=trace,
        mean_response_ms=mean_ms,
        steady_response_ms=mean_ms,
        read_response_ms=mean_ms,
        write_response_ms=mean_ms,
        p99_response_ms=mean_ms * 3,
        sdrpp=1.0,
        plane_ops=np.zeros(4, dtype=np.int64),
        num_requests=100,
        host_pages_written=100,
        host_pages_read=100,
        gc_invocations=0,
        gc_passes=0,
        gc_moved_pages=0,
        gc_copyback_moves=0,
        gc_controller_moves=0,
        gc_wasted_pages=0,
        gc_translation_updates=0,
        erases=0,
        copybacks=0,
        flash_reads=0,
        flash_programs=100,
        cmt_hit_ratio=None,
        wear=WearStats(0, 0, 0.0, 0.0),
        sim_duration_s=1.0,
        wall_time_s=0.1,
        extras=dict(extras),
    )


def capacity_grid():
    results = []
    for cap in (2, 8):
        for ftl, mean in (("dloop", 1.0 * cap), ("fast", 10.0 * cap)):
            results.append(make_result("t1", ftl, mean, capacity_gb=cap))
    return results


def test_detect_axis():
    assert detect_axis(capacity_grid()) == "capacity_gb"
    with pytest.raises(ValueError):
        detect_axis([make_result("t", "dloop", 1.0)])


def test_figure_series_shape():
    series = figure_series(capacity_grid())
    assert series == {"t1": {"dloop": [2.0, 8.0], "fast": [20.0, 80.0]}}


def test_render_figure_contains_sparklines():
    text = render_figure(capacity_grid(), title="demo")
    assert "demo" in text
    assert "[t1] mean_response_ms vs capacity_gb" in text
    assert "dloop" in text and "fast" in text
    assert "x: [2, 8]" in text


def test_summarize_wins():
    summary = summarize_wins(capacity_grid(), winner="dloop")
    assert summary == {"winner": "dloop", "wins": 2, "cells": 2}
    summary = summarize_wins(capacity_grid(), winner="fast")
    assert summary["wins"] == 0


def test_write_amplification_property():
    r = make_result("t", "dloop", 1.0, capacity_gb=2)
    assert r.write_amplification == pytest.approx(1.0)
