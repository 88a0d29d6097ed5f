"""Tests for repro.perf: the fingerprint helpers and the memory check.

The golden fingerprints themselves are asserted in
``tests/test_golden_fingerprints.py``.
"""

from __future__ import annotations

import numpy as np

from repro.perf import checksum_int64, engine_fingerprint
from repro.perf.memcheck import run_memcheck
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


# ---- memcheck --------------------------------------------------------------


def test_memcheck_passes_under_cap():
    assert run_memcheck(2_000, 32, rss_cap_mb=1024, verbose=False) == 0


def test_memcheck_fails_over_cap(capsys):
    assert run_memcheck(2_000, 32, rss_cap_mb=1, verbose=False) == 1
    assert "exceeds the 1 MB cap" in capsys.readouterr().err
