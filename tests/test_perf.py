"""Tests for repro.perf: the fingerprint helpers and the memory check.

The golden fingerprints themselves are asserted in
``tests/test_golden_fingerprints.py``.
"""

from __future__ import annotations

import numpy as np

from repro.perf import checksum_int64, engine_fingerprint
from repro.perf.memcheck import main as memcheck_main
from repro.perf.memcheck import run_memcheck, run_paper_cell
from repro.sim.engine import Engine


# ---- fingerprints ----------------------------------------------------------


def test_checksum_identical_across_backing_stores():
    from array import array

    values = [5, -1, 0, 2**40, -(2**40)]
    as_numpy = np.asarray(values, dtype=np.int64)
    as_flat = array("q", values)
    assert checksum_int64(as_numpy) == checksum_int64(as_flat)


def test_checksum_of_a_four_byte_table_is_the_crc_of_its_int64_image(monkeypatch):
    import zlib
    from array import array

    import repro.perf.fingerprint as fingerprint

    values = [7, -1, 0, 2**31 - 1, -(2**31), 12345]
    image = np.asarray(values, dtype="<i8").tobytes()
    narrow = array("i", values)
    assert checksum_int64(narrow) == zlib.crc32(image)
    assert checksum_int64(np.frombuffer(narrow, dtype=np.int32)) == zlib.crc32(image)
    monkeypatch.setattr(fingerprint, "_CRC_CHUNK", 4)  # several chunks
    assert checksum_int64(narrow) == zlib.crc32(image)


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


def test_paper_cell_reports_bytes_per_physical_page(capsys):
    assert run_paper_cell(0.25, "dloop", 300, rss_cap_mb=1024, sanitize=True) == 0
    assert "B per physical page" in capsys.readouterr().out
    assert run_paper_cell(0.25, "fast", 300, rss_cap_mb=1, verbose=False) == 1
    assert "exceeds the 1 MB cap" in capsys.readouterr().err


def test_memcheck_seed_reaches_the_paper_cell(monkeypatch):
    import repro.traces.synthetic as synthetic

    seeds = []
    make_workload = synthetic.make_workload

    def recording(name, num_requests, footprint_bytes, seed=None):
        seeds.append(seed)
        return make_workload(name, num_requests, footprint_bytes, seed)

    monkeypatch.setattr(synthetic, "make_workload", recording)
    cell = ["--paper-cell", "0.25", "--requests", "200", "--rss-cap-mb", "1024"]
    assert memcheck_main(cell + ["--seed", "5"]) == 0
    assert memcheck_main(cell) == 0
    assert seeds == [5, None]
