"""The full coherence check walks the stores in slices.

A full check (no candidates) must yield exactly what one pass over the
whole device yields — kinds, their order, offender arrays, and so the
``verify_integrity`` and ``SanitizerError`` texts — while allocating
temporaries for one slice only.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.controller.device import SimulatedSSD
from repro.experiments.config import scaled_geometry
from repro.flash.address import PageState
from repro.flash.geometry import SSDGeometry
from repro.ftl import coherence
from repro.ftl.coherence import FORWARD_STATE, coherence_findings, mapping_stores
from repro.lint import SanitizerError, SimSanitizer
from repro.obs.tracebus import BUS
from tests.test_sanitizer import corrupt, corruptions, update_heavy_workload

SMALL = SSDGeometry(
    channels=2, packages_per_channel=1, chips_per_package=1,
    dies_per_chip=1, planes_per_die=2, blocks_per_plane=16,
    pages_per_block=8, page_size=256, extra_blocks_percent=25.0,
)


def full_check(ftl):
    """Everything a full check reports: findings and both message texts."""
    findings = list(coherence_findings(mapping_stores(ftl)))
    try:
        ftl.verify_integrity()
        integrity = None
    except (AssertionError, RuntimeError) as err:
        integrity = f"{type(err).__name__}: {err}"
    try:
        SimSanitizer(ftl).check_now()  # first sweep: the full form
        sanitized = None
    except SanitizerError as err:
        sanitized = str(err)
    return findings, integrity, sanitized


def assert_same_findings(got, want):
    assert [kind for kind, _ in got] == [kind for kind, _ in want]
    for (_, bad), (_, ref) in zip(got, want):
        assert bad.dtype == ref.dtype
        assert np.array_equal(bad, ref)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    ftl_name=st.sampled_from(["dloop", "dftl", "fast", "pagemap"]),
    seed=st.integers(0, 2**16),
    n=st.integers(20, 200),
    cells=corruptions(),
    slice_size=st.sampled_from([1, 3, 7, 37, 101]),
)
def test_sliced_full_check_equals_one_pass(ftl_name, seed, n, cells, slice_size):
    try:
        ssd = SimulatedSSD(SMALL, ftl=ftl_name)
        ssd.precondition(0.7)
        ssd.run(update_heavy_workload(SMALL, n=n, seed=seed))
        corrupt(ssd.ftl, cells)
        assert SMALL.num_physical_pages <= coherence.FULL_CHECK_SLICE  # one pass
        whole = full_check(ssd.ftl)
        with mock.patch.object(coherence, "FULL_CHECK_SLICE", slice_size):
            sliced = full_check(ssd.ftl)
        assert_same_findings(sliced[0], whole[0])
        assert sliced[1:] == whole[1:]
    finally:
        BUS.clear()


def test_offenders_gather_across_slices():
    ssd = SimulatedSSD(SMALL, ftl="dloop")
    ssd.precondition(0.7)
    ftl = ssd.ftl
    free = np.flatnonzero(ftl.array.page_state_np == PageState.FREE)
    mapped = ftl.mapped_lpns()
    victims = [int(mapped[0]), int(mapped[-1])]  # far apart: distinct slices
    for lpn in victims:
        ftl.page_table[lpn] = int(free[-1])
    with mock.patch.object(coherence, "FULL_CHECK_SLICE", 7):
        findings = list(coherence_findings(mapping_stores(ftl)))
    assert findings[0][0] == FORWARD_STATE
    assert findings[0][1].tolist() == victims


def test_sliced_full_check_allocates_a_slice_not_the_device():
    ssd = SimulatedSSD(scaled_geometry(8, scale=1 / 32), ftl="dloop")
    ssd.precondition(0.45)
    stores = mapping_stores(ssd.ftl)

    def traced_peak():
        tracemalloc.start()
        try:
            assert not list(coherence_findings(stores))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(stores[1]) <= coherence.FULL_CHECK_SLICE  # one slice today
    whole = traced_peak()
    with mock.patch.object(coherence, "FULL_CHECK_SLICE", 4096):
        sliced = traced_peak()
    assert sliced * 4 <= whole, (sliced, whole)
