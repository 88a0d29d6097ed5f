"""Cross-FTL integration: identical workloads, equivalent logical state."""

import random

import pytest

from repro.controller.device import SimulatedSSD
from repro.flash.address import PageState
from repro.sim.request import IoOp, IoRequest
from tests.ftl_cases import resolve

ALL_FTLS = ("dloop", "dloop-nocb", "dftl", "fast", "pagemap")


def _ssd(geometry, case: str) -> SimulatedSSD:
    name, kwargs = resolve(case)
    return SimulatedSSD(geometry, ftl=name, **kwargs)


def mixed_workload(geometry, n=1200, seed=99, footprint=0.7):
    rng = random.Random(seed)
    space = int(geometry.num_lpns * footprint)
    requests = []
    t = 0.0
    for _ in range(n):
        t += rng.expovariate(1 / 500.0)
        lpn = rng.randrange(space)
        count = min(rng.choice((1, 1, 2, 4)), geometry.num_lpns - lpn)
        op = IoOp.WRITE if rng.random() < 0.6 else IoOp.READ
        requests.append(IoRequest(t, lpn, count, op))
    return requests


@pytest.mark.parametrize("ftl", ALL_FTLS)
def test_every_ftl_survives_mixed_workload(small_geometry, ftl):
    ssd = _ssd(small_geometry, ftl)
    ssd.run(mixed_workload(small_geometry))
    ssd.verify()
    assert ssd.stats.count == 1200
    assert ssd.mean_response_ms() > 0


def test_all_ftls_agree_on_final_logical_state(small_geometry):
    """Same trace -> same set of mapped LPNs, each holding its own data."""
    workload = mixed_workload(small_geometry)
    mapped_sets = {}
    for ftl in ALL_FTLS:
        ssd = _ssd(small_geometry, ftl)
        ssd.run(list(workload))
        table = ssd.ftl.page_table
        mapped = frozenset(int(lpn) for lpn in ssd.ftl.mapped_lpns())
        mapped_sets[ftl] = mapped
        for lpn in mapped:
            ppn = int(table[lpn])
            assert ssd.ftl.array.owner_of(ppn) == lpn
            assert ssd.ftl.array.state_of(ppn) == PageState.VALID
    assert len(set(mapped_sets.values())) == 1, "FTLs disagree on written LPNs"


def test_dloop_outperforms_dftl_and_fast_under_update_pressure(small_geometry):
    """The paper's headline ordering on a GC-heavy random-update load."""
    means = {}
    for ftl in ("dloop", "dftl", "fast"):
        ssd = SimulatedSSD(small_geometry, ftl=ftl)
        ssd.precondition(0.65)
        ssd.run(mixed_workload(small_geometry, n=2500, seed=7, footprint=0.6))
        means[ftl] = ssd.mean_response_ms()
    assert means["dloop"] < means["dftl"]
    assert means["dloop"] < means["fast"]


def test_dloop_spreads_requests_more_evenly_than_dftl(small_geometry):
    """DLOOP's striping avoids DFTL's plane-0 mapping hotspot.

    (FAST's round-robin log allocation is competitive at this tiny
    4-plane scale; the full 32-plane benchmark grid checks the paper's
    complete SDRPP ordering.)
    """
    from repro.metrics.sdrpp import sdrpp

    values = {}
    for ftl in ("dloop", "dftl", "fast"):
        ssd = SimulatedSSD(small_geometry, ftl=ftl)
        ssd.precondition(0.7)
        ssd.run(mixed_workload(small_geometry, n=2500, seed=8))
        values[ftl] = sdrpp(ssd.counters)
    assert values["dloop"] < values["dftl"]


def test_dloop_gc_frees_bus_for_reads(small_geometry):
    """Channel busy time during GC-heavy load: DLOOP << DLOOP-no-copyback."""
    busy = {}
    for use_copyback in (True, False):
        ssd = SimulatedSSD(small_geometry, ftl="dloop", use_copyback=use_copyback)
        ssd.precondition(0.7)
        ssd.run(mixed_workload(small_geometry, n=2500, seed=9))
        busy[use_copyback] = float(sum(ssd.counters.channel_busy_us))
    assert busy[True] < busy[False]


def test_wear_spread_reasonable_for_dloop(small_geometry):
    from repro.metrics.wear import wear_stats

    ssd = SimulatedSSD(small_geometry, ftl="dloop")
    ssd.precondition(0.7)
    ssd.run(mixed_workload(small_geometry, n=3000, seed=10))
    stats = wear_stats(ssd.ftl.array)
    assert stats.total_erases > 0
    assert stats.cv < 3.0  # no block wears out catastrophically faster


def test_read_only_workload_never_gcs(small_geometry):
    ssd = SimulatedSSD(small_geometry, ftl="dloop")
    ssd.precondition(0.6)
    reads = [IoRequest(float(i * 100), i % small_geometry.num_lpns, 1, IoOp.READ) for i in range(500)]
    ssd.run(reads)
    assert ssd.ftl.gc_stats.passes == 0
    assert ssd.counters.erases == 0
