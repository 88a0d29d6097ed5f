"""repro.perf: determinism fingerprints and the bounded-memory check.

* **Did an optimisation change behaviour?**  A *determinism
  fingerprint* (:mod:`repro.perf.fingerprint`) digests a run — final
  simulated clock, event counts, flash counters and a mapping-table
  checksum.  Fingerprints are machine-independent and bit-stable: an
  optimisation is only legal if ``tests/test_golden_fingerprints.py``
  still reproduces the committed fixture
  (``tests/fixtures/golden_fingerprints.json``) bit for bit.
* **Does the streaming path stay O(1) in memory?**
  ``python -m repro.perf.memcheck`` replays a 1M-request trace in a
  fresh process under a peak-RSS cap.

How fast the simulator is, end to end and per layer, is measured by
``python -m perfbench`` (see ``docs/performance.md``).
"""

from repro.perf.fingerprint import checksum_int64, engine_fingerprint, ftl_fingerprint

__all__ = [
    "checksum_int64",
    "engine_fingerprint",
    "ftl_fingerprint",
]
