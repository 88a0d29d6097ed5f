"""Metrics: SDRPP, wear statistics, report tables."""

import math

import numpy as np
import pytest

from repro.flash.array import FlashArray
from repro.flash.counters import FlashCounters
from repro.metrics.report import format_table
from repro.metrics.sdrpp import sdrpp
from repro.metrics.wear import wear_stats


def test_sdrpp_zero_for_even_distribution():
    assert sdrpp(np.array([100, 100, 100, 100])) == 0.0


def test_sdrpp_grows_with_imbalance():
    even = sdrpp(np.array([100, 100, 100, 100]))
    mild = sdrpp(np.array([90, 110, 95, 105]))
    wild = sdrpp(np.array([10, 390, 0, 0]))
    assert even < mild < wild


def test_sdrpp_is_natural_log_scale():
    counts = np.array([0, 200])
    assert sdrpp(counts) == pytest.approx(math.log(np.std(counts) + 1))


def test_sdrpp_accepts_counters():
    counters = FlashCounters(4, 2)
    counters.plane_ops[:] = [5, 5, 5, 5]
    assert sdrpp(counters) == 0.0


def test_counters_std():
    counters = FlashCounters(2, 1)
    counters.plane_ops[:] = [0, 10]
    assert sdrpp(counters) == pytest.approx(math.log(5.0 + 1))
    assert counters.total_ops == 10


def test_wear_stats_fresh_device(small_geometry):
    array = FlashArray(small_geometry)
    stats = wear_stats(array)
    assert stats.total_erases == 0
    assert stats.cv == 0.0


def test_wear_stats_after_erases(small_geometry):
    array = FlashArray(small_geometry)
    block = array.allocate_block(0)
    array.erase(block)
    array.erase(block)
    stats = wear_stats(array)
    assert stats.total_erases == 2
    assert stats.max_erases == 2
    assert stats.cv > 0  # uneven: one block carries all the wear


def test_format_table_alignment():
    rows = [
        {"ftl": "dloop", "mean_ms": 0.123456},
        {"ftl": "fast", "mean_ms": 12.5},
    ]
    text = format_table(rows, title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "ftl" in lines[1] and "mean_ms" in lines[1]
    assert "dloop" in lines[3]
    assert "0.1235" in lines[3]  # 4 significant digits


def test_format_table_empty():
    assert "(no rows)" in format_table([])


def test_format_table_column_selection():
    rows = [{"a": 1, "b": 2}]
    text = format_table(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]
