"""SimulatedSSD facade: construction, preconditioning, verification."""

import pytest

from repro.controller.device import SimulatedSSD
from repro.ftl.base import Ftl
from repro.sim.request import IoOp, IoRequest


def test_default_construction_is_dloop():
    ssd = SimulatedSSD()
    assert ssd.ftl.name == "dloop"


def test_ftl_selection_by_name(small_geometry):
    for name in ("dloop", "dftl", "fast", "pagemap", "dloop-hc"):
        ssd = SimulatedSSD(small_geometry, ftl=name)
        assert isinstance(ssd.ftl, Ftl)
    # constructor knobs reach the FTL the name builds
    assert SimulatedSSD(small_geometry, ftl="dloop", use_copyback=False).ftl.use_copyback is False


def test_unknown_ftl_rejected(small_geometry):
    with pytest.raises(ValueError):
        SimulatedSSD(small_geometry, ftl="nope")


def test_precondition_fills_logical_space(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    ssd.precondition(0.5)
    mapped = ssd.ftl.mapped_lpns()
    assert len(mapped) == int(small_geometry.num_lpns * 0.5)
    ssd.verify()


def test_precondition_resets_measurements(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    ssd.precondition(0.5)
    assert ssd.counters.programs == 0
    assert ssd.stats.count == 0
    assert max(ssd.ftl.clock.plane_free) == 0.0
    # but the flash state persists
    assert ssd.ftl.array.utilization() > 0


def test_precondition_bad_fraction(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    with pytest.raises(ValueError):
        ssd.precondition(0.0)
    with pytest.raises(ValueError):
        ssd.precondition(1.5)


def test_run_returns_final_time(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    end = ssd.run([IoRequest(100.0, 0, 1, IoOp.WRITE)])
    assert end >= 100.0


def test_run_accepts_iterable(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    reqs = (IoRequest(float(i), i, 1, IoOp.WRITE) for i in range(5))
    ssd.run(reqs)
    assert ssd.stats.count == 5


def test_passing_ftl_instance(small_geometry, timing):
    from repro.ftl.pagemap import PageMapFtl

    ftl = PageMapFtl(small_geometry, timing)
    ssd = SimulatedSSD(small_geometry, timing, ftl=ftl)
    assert ssd.ftl is ftl


def test_verify_detects_corruption(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    ssd.run([IoRequest(0.0, 0, 1, IoOp.WRITE)])
    ssd.verify()
    ssd.ftl.page_table[0] = ssd.ftl.page_table[0] + 1  # corrupt the map
    with pytest.raises(AssertionError):
        ssd.verify()


def test_all_device_features_compose(small_geometry):
    """Write buffer + background GC + the stats sampler in one device."""
    import random

    from repro.sim.request import IoOp, IoRequest

    ssd = SimulatedSSD(
        small_geometry,
        ftl="dloop",
        cmt_entries=64,
        write_buffer_pages=16,
        background_gc=True,
        stats_interval_us=5_000.0,
    )
    ssd.precondition(0.5)
    rng = random.Random(3)
    requests, t = [], 0.0
    for _ in range(400):
        t += rng.expovariate(1 / 800.0)
        requests.append(
            IoRequest(t, rng.randrange(int(small_geometry.num_lpns * 0.6)), 1,
                      IoOp.WRITE if rng.random() < 0.7 else IoOp.READ)
        )
    ssd.run(requests)
    ssd.flush()
    ssd.verify()
    assert ssd.stats.count == 400
    assert ssd.write_buffer.stats.write_hits + ssd.write_buffer.stats.write_misses > 0
    assert len(ssd.run_stats.times_us) > 0
    assert ssd.background_gc.stats.ticks >= 0


def test_power_cycle_recovers_mapping(small_geometry):
    import numpy as np

    ssd = SimulatedSSD(small_geometry, ftl="dloop", cmt_entries=64)
    ssd.run([IoRequest(float(i * 100), i % 50, 1, IoOp.WRITE) for i in range(200)])
    table_before = ssd.ftl.page_table_np.copy()
    recovered = ssd.power_cycle()
    assert recovered == int(np.count_nonzero(table_before != -1))
    assert np.array_equal(ssd.ftl.page_table_np, table_before)
    ssd.verify()


def test_power_cycle_loses_unflushed_buffer(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="pagemap", write_buffer_pages=64)
    ssd.run([IoRequest(0.0, 5, 1, IoOp.WRITE)])  # sits in DRAM only
    assert not ssd.ftl.is_mapped(5)
    ssd.power_cycle()
    assert not ssd.ftl.is_mapped(5)  # the write is gone, consistently
    ssd.verify()


def test_reset_measurements_clears_all_component_stats(small_geometry):
    """The measurement boundary must zero *every* stats accumulator:
    controller, FTL host counters, write buffer, and fault accounting —
    while physical state survives."""
    import random

    from repro.faults import FaultConfig

    ssd = SimulatedSSD(
        small_geometry,
        ftl="dloop",
        write_buffer_pages=16,
        faults=FaultConfig.moderate(seed=3),
    )
    rng = random.Random(9)
    requests, t = [], 0.0
    for _ in range(300):
        t += rng.expovariate(1 / 500.0)
        requests.append(
            IoRequest(t, rng.randrange(int(small_geometry.num_lpns * 0.6)), 1,
                      IoOp.WRITE if rng.random() < 0.8 else IoOp.READ)
        )
    ssd.run(requests)
    ssd.flush()
    assert ssd.ftl.stats.host_writes > 0
    assert ssd.write_buffer.stats.write_hits + ssd.write_buffer.stats.write_misses > 0
    fault_activity = ssd.faults.stats.program_failures + ssd.faults.stats.read_retries
    utilization_before = ssd.ftl.array.utilization()

    ssd.reset_measurements()

    assert ssd.stats.count == 0
    assert ssd.controller.peak_outstanding == 0
    assert ssd.ftl.stats.host_writes == 0 and ssd.ftl.stats.host_reads == 0
    assert ssd.ftl.gc_stats.invocations == 0
    assert ssd.write_buffer.stats.write_hits == 0
    assert ssd.write_buffer.stats.write_misses == 0
    assert ssd.write_buffer.stats.evictions == 0
    assert ssd.faults.stats.program_failures == 0
    assert ssd.faults.stats.read_retries == 0
    assert ssd.faults.stats.sites == []
    # physical state is untouched
    assert ssd.ftl.array.utilization() == utilization_before
    assert fault_activity >= 0  # (ran; counters may legitimately be zero)
    ssd.verify()


def test_reset_measurements_preserves_streaming_stats_type(small_geometry):
    from repro.metrics.streaming import StreamingRequestStats

    ssd = SimulatedSSD(small_geometry, ftl="pagemap")
    ssd.run([IoRequest(0.0, 0, 1, IoOp.WRITE)])
    before = ssd.stats
    ssd.reset_measurements()
    assert isinstance(ssd.stats, StreamingRequestStats) and ssd.stats is not before
    assert ssd.stats.count == 0 and ssd.stats.reservoir.values == []
