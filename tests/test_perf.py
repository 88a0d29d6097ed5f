"""Tests for the repro.perf benchmark/regression harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf import (
    BENCHMARKS,
    checksum_int64,
    compare_reports,
    engine_fingerprint,
    load_report,
    run_suite,
    save_report,
)
from repro.perf.harness import BenchReport
from repro.sim.engine import Engine


# ---- fingerprints ----------------------------------------------------------


def test_checksum_identical_across_backing_stores():
    from array import array

    values = [5, -1, 0, 2**40, -(2**40)]
    as_numpy = np.asarray(values, dtype=np.int64)
    as_flat = array("q", values)
    assert checksum_int64(as_numpy) == checksum_int64(as_flat)


def test_checksum_distinguishes_content():
    a = np.asarray([1, 2, 3], dtype=np.int64)
    b = np.asarray([1, 2, 4], dtype=np.int64)
    assert checksum_int64(a) != checksum_int64(b)


def test_engine_fingerprint_clock_repr_roundtrips():
    engine = Engine()
    engine.schedule_at(0.1 + 0.2, lambda: None)  # a classic non-exact double
    engine.run()
    fp = engine_fingerprint(engine)
    assert float(fp["final_clock"]) == engine.now
    assert fp["events_processed"] == 1
    assert fp["pending"] == 0


# ---- suite -----------------------------------------------------------------


def test_suite_has_exactly_one_headline():
    assert sum(1 for b in BENCHMARKS if b.headline) == 1


def test_benchmark_names_are_unique():
    names = [b.name for b in BENCHMARKS]
    assert len(names) == len(set(names))


def test_run_suite_unknown_benchmark_rejected():
    with pytest.raises(ValueError, match="unknown benchmark"):
        run_suite(quick=True, only=["no-such-bench"])


def test_run_suite_repeat_must_be_positive():
    with pytest.raises(ValueError):
        run_suite(quick=True, repeat=0)


def test_engine_churn_deterministic_across_repeats():
    # repeat=2 exercises the harness's own fingerprint cross-check.
    report = run_suite(quick=True, only=["engine-churn"], repeat=2)
    (rec,) = report.records
    assert rec.name == "engine-churn"
    assert rec.unit == "events"
    assert rec.work_units > 0
    assert rec.wall_s > 0
    assert rec.throughput_per_s > 0
    assert rec.peak_rss_kb > 0
    assert rec.fingerprint["pending"] == 0


# ---- persistence and gating ------------------------------------------------


def _tiny_report() -> BenchReport:
    return run_suite(quick=True, only=["engine-churn"], label="t")


def test_report_roundtrip(tmp_path):
    report = _tiny_report()
    path = str(tmp_path / "bench.json")
    save_report(report, path)
    back = load_report(path)
    assert back.label == report.label
    assert back.quick == report.quick
    assert [r.as_dict() for r in back.records] == [r.as_dict() for r in report.records]


def test_compare_identical_reports_ok():
    report = _tiny_report()
    result = compare_reports(report, report)
    assert result.ok
    assert result.throughput["engine-churn"][0] == result.throughput["engine-churn"][1]


def test_compare_flags_fingerprint_drift():
    current = _tiny_report()
    baseline = _tiny_report()
    baseline.records[0].fingerprint = dict(
        baseline.records[0].fingerprint, events_processed=1
    )
    result = compare_reports(current, baseline)
    assert not result.ok
    assert result.mismatches == ["engine-churn"]


def test_compare_flags_missing_benchmark():
    current = BenchReport(label="empty", quick=True)
    baseline = _tiny_report()
    result = compare_reports(current, baseline)
    assert not result.ok
    assert result.missing == ["engine-churn"]


def test_compare_rejects_mode_mismatch():
    quick = _tiny_report()
    full = BenchReport(label="f", quick=False, records=list(quick.records))
    with pytest.raises(ValueError, match="mode mismatch"):
        compare_reports(full, quick)


def test_timings_never_gate():
    current = _tiny_report()
    baseline = _tiny_report()
    baseline.records[0].wall_s = 1e-9  # absurdly fast baseline
    baseline.records[0].throughput_per_s = 1e12
    assert compare_reports(current, baseline).ok
