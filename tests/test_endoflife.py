"""End-of-life behaviour: the device degrades, it does not crash.

Aggressive erase failures retire blocks until the free pools can no
longer absorb writes.  The contract (ISSUE: robustness): requests that
cannot be served fail individually with an ENOSPC-style error on the
request, the simulation keeps running, and the sanitizer's shadow
model stays coherent throughout.
"""

import random

import pytest

from repro.controller.device import SimulatedSSD
from repro.faults import FaultConfig
from repro.sim.request import IoOp, IoRequest


def _write_hammer(num_lpns: int, n: int, seed: int = 13):
    """Write-only churn over half the logical space — forces GC, and
    with blocks retiring underneath it, eventual exhaustion."""
    rng = random.Random(seed)
    space = max(1, int(num_lpns * 0.5))
    t = 0.0
    requests = []
    for _ in range(n):
        t += rng.expovariate(1 / 300.0)
        requests.append(IoRequest(t, rng.randrange(space), 1, IoOp.WRITE))
    return requests


@pytest.mark.parametrize("name", ("dloop", "dftl", "fast"))
def test_device_wears_out_gracefully(small_geometry, name):
    config = FaultConfig(seed=21, erase_fail_rate=0.30)
    ssd = SimulatedSSD(small_geometry, ftl=name, sanitize=True, faults=config)
    ssd.precondition(0.5)
    requests = _write_hammer(small_geometry.num_lpns, n=3000)
    ssd.run(requests)  # must not raise

    stats = ssd.stats
    assert ssd.faults.stats.erase_failures > 0
    assert ssd.ftl.array.bad_block_count() > 0
    assert stats.failed_requests > 0, "device never hit end of life"
    assert stats.failed_requests < len(requests), "some writes did land"
    failed = [r for r in requests if r.error is not None]
    assert len(failed) == stats.failed_requests
    assert all(r.op is IoOp.WRITE for r in failed)
    # failed requests still complete (with an error status), they don't hang
    assert all(r.completion_us >= r.arrival_us for r in failed)

    # The shadow model stayed coherent through retirement + exhaustion.
    report = ssd.sanitizer.finalize()
    assert report["violations"] == 0
    ssd.verify()


def test_reads_survive_after_enospc(small_geometry):
    """A full device still serves reads for data it accepted earlier."""
    config = FaultConfig(seed=22, erase_fail_rate=0.35)
    ssd = SimulatedSSD(small_geometry, ftl="dloop", sanitize=True,
                       faults=config)
    ssd.precondition(0.5)
    ssd.run(_write_hammer(small_geometry.num_lpns, n=3000, seed=5))
    assert ssd.stats.failed_requests > 0

    mapped = [lpn for lpn in range(small_geometry.num_lpns)
              if ssd.ftl.page_table[lpn] != -1]
    assert mapped, "end of life should not have unmapped everything"
    t0 = ssd.engine.now
    reads = [IoRequest(t0 + 10.0 * i, lpn, 1, IoOp.READ)
             for i, lpn in enumerate(mapped[:32])]
    before = ssd.stats.failed_requests
    ssd.run(reads)
    assert ssd.stats.failed_requests == before
    assert all(r.error is None for r in reads)
    assert ssd.sanitizer.finalize()["violations"] == 0


def test_end_of_life_metrics_expose_wear(small_geometry):
    """remaining_life_fraction / retired_fraction move the right way as
    the device wears out (satellite: cheap wear gauges)."""
    config = FaultConfig(seed=23, erase_fail_rate=0.30)
    ssd = SimulatedSSD(small_geometry, ftl="dloop", faults=config,
                       bad_blocks={"rated_cycles": 200, "factory_bad_rate": 0.0})
    manager = ssd.bad_blocks
    assert manager.retired_fraction() == 0.0
    life_fresh = manager.remaining_life_fraction()
    ssd.precondition(0.5)
    ssd.run(_write_hammer(small_geometry.num_lpns, n=3000, seed=7))
    assert manager.retired_fraction() > 0.0
    assert manager.remaining_life_fraction() < life_fresh
    assert manager.stats.runtime_retired + manager.stats.factory_bad <= \
        ssd.ftl.array.bad_block_count()


def test_error_samples_stay_out_of_moments_on_both_paths(small_geometry):
    """ENOSPC'd requests are bucketed apart from successes identically
    on the materialized (``run``) and streamed (``run_stream``) paths:
    same failure count, same success count, same moments — and count +
    failed always equals the trace length (regression: errors used to
    pollute the Welford moments and the percentile reservoir)."""
    def build():
        ssd = SimulatedSSD(small_geometry, ftl="dloop",
                           faults=FaultConfig(seed=21, erase_fail_rate=0.30))
        ssd.precondition(0.5)
        return ssd

    requests = _write_hammer(small_geometry.num_lpns, n=3000)

    materialized = build()
    materialized.run(list(requests))

    streamed = build()
    streamed.run_stream(
        iter(_write_hammer(small_geometry.num_lpns, n=3000))
    )

    m, s = materialized.stats, streamed.stats
    assert m.failed_requests > 0, "trace never hit end of life"
    assert s.failed_requests == m.failed_requests
    # Successes only in the headline count, on both paths.
    assert s.count == m.count
    assert m.count + m.failed_requests == len(requests)
    # Errors land in their own bucket, same cardinality both paths.
    assert m.errors.count == m.failed_requests
    assert s.errors.count == s.failed_requests
    # Success and error moments agree, and so do the reservoirs.
    assert s.overall == m.overall
    assert s.errors == m.errors
    assert s.reservoir.values == m.reservoir.values
