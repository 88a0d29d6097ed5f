"""SimSanitizer: clean runs pass, injected violations fail by rule name.

The sanitizer must be a pure observer (sanitized run == unsanitized run,
bit for bit) and must fail fast — with the violated rule's name — when
fed a corrupted mapping, an off-plane or parity-breaking copy-back, an
illegal block lifecycle, or out-of-order engine events.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.controller.device import SimulatedSSD
from repro.flash.address import PageState
from repro.flash.geometry import SSDGeometry
from repro.lint import SanitizerError, SimSanitizer
from repro.obs.tracebus import BUS
from repro.sim.request import IoOp, IoRequest
from tests.ftl_cases import ftl_cases, resolve


@pytest.fixture(autouse=True)
def clean_global_bus():
    yield
    BUS.clear()


def update_heavy_workload(geometry, n=1200, seed=33):
    """Random updates over a tight footprint: forces GC and copy-back."""
    rng = random.Random(seed)
    space = int(geometry.num_lpns * 0.55)
    requests, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(1 / 400.0)
        lpn = rng.randrange(space)
        count = min(rng.choice((1, 1, 2)), geometry.num_lpns - lpn)
        op = IoOp.WRITE if rng.random() < 0.85 else IoOp.READ
        requests.append(IoRequest(t, lpn, count, op))
    return requests


def fingerprint(ssd):
    return {
        "response_us": list(ssd.stats.reservoir.values),
        "counters": ssd.counters.as_dict(),
        "gc_passes": ssd.ftl.gc_stats.passes,
        "gc_copyback": ssd.ftl.gc_stats.copyback_moves,
        "mapped": sorted(int(l) for l in ssd.ftl.mapped_lpns()),
    }


def run_dloop(geometry, *, sanitize):
    ssd = SimulatedSSD(geometry, ftl="dloop", sanitize=sanitize)
    ssd.precondition(0.7)
    ssd.run(update_heavy_workload(geometry))
    return ssd


# ---------------------------------------------------------------------------
# clean runs


class TestCleanRun:
    def test_gc_heavy_run_has_zero_violations(self, small_geometry):
        ssd = run_dloop(small_geometry, sanitize=True)
        assert ssd.ftl.gc_stats.copyback_moves > 0  # guard: checks exercised
        report = ssd.sanitizer.finalize()
        assert report["violations"] == 0
        assert report["migrations_checked"] == ssd.ftl.gc_stats.copyback_moves
        assert report["sweeps"] > ssd.ftl.gc_stats.passes  # per-pass + final
        assert report["events_checked"] > 0
        assert report["spans_checked"] > 0  # occupancy checker exercised
        assert BUS.subscriber_count == 0  # finalize detached

    def test_sanitized_run_is_bit_identical(self, small_geometry):
        sanitized = run_dloop(small_geometry, sanitize=True)
        sanitized.sanitizer.finalize()
        plain = run_dloop(small_geometry, sanitize=False)
        assert fingerprint(plain) == fingerprint(sanitized)

    @pytest.mark.parametrize("ftl_name", ["dftl", "pagemap"])
    def test_other_ftls_pass_too(self, small_geometry, ftl_name):
        ssd = SimulatedSSD(small_geometry, ftl=ftl_name, sanitize=True)
        ssd.precondition(0.7)
        ssd.run(update_heavy_workload(small_geometry, n=500))
        assert ssd.sanitizer.finalize()["violations"] == 0


# ---------------------------------------------------------------------------
# injected violations — each must raise SanitizerError naming the rule


def _watch(geometry, beside=None):
    """A lightly-used SSD with a manually attached sanitizer: the bus's
    only subscriber (``BUS.emit`` is its ``trace_emit``), or the first of
    two with ``beside`` subscribed after it (fan-out)."""
    ssd = SimulatedSSD(geometry, ftl="dloop")
    ssd.precondition(0.5)
    sanitizer = SimSanitizer(ssd.ftl).attach()
    if beside is None:
        assert BUS.emit == sanitizer.trace_emit
    else:
        BUS.subscribe(beside)
        assert BUS.emit != sanitizer.trace_emit
    yield ssd, sanitizer
    sanitizer.detach()


@pytest.fixture
def watched(small_geometry):
    yield from _watch(small_geometry)


class FanOut:
    """Mixin: a rule test class's cases again, with a plain subscriber
    beside the sanitizer.  Rule, message and snapshot must not depend on
    the delivery path.  (A mixin rather than fixture params keeps the
    direct path's test ids.)"""

    @pytest.fixture
    def watched(self, small_geometry):
        yield from _watch(small_geometry, beside=lambda event: None)


def expect_rule(rule, fn):
    with pytest.raises(SanitizerError) as excinfo:
        fn()
    assert excinfo.value.rule == rule
    assert rule in str(excinfo.value)
    return excinfo.value


class TestInjectedViolations:
    def test_cross_plane_copyback(self, watched):
        ssd, sanitizer = watched
        ppb = ssd.geometry.pages_per_block
        plane_pages = ppb * ssd.geometry.physical_blocks_per_plane
        err = expect_rule(
            "copyback-plane",
            lambda: BUS.emit(
                "gc", "migrate", 10.0, 0.0,
                {"mode": "copyback", "from_ppn": 0, "to_ppn": plane_pages},
            ),
        )
        assert err.snapshot["event"]["to_ppn"] == plane_pages

    def test_copyback_parity_mismatch(self, watched):
        ssd, sanitizer = watched
        ppb = ssd.geometry.pages_per_block
        # same plane, even page offset -> odd page offset
        expect_rule(
            "copyback-parity",
            lambda: BUS.emit(
                "gc", "migrate", 10.0, 0.0,
                {"mode": "copyback", "from_ppn": 0, "to_ppn": ppb + 1},
            ),
        )

    def test_controller_mode_migrations_may_cross_planes(self, watched):
        ssd, sanitizer = watched
        plane_pages = ssd.geometry.pages_per_block * ssd.geometry.physical_blocks_per_plane
        BUS.emit(
            "gc", "migrate", 10.0, 0.0,
            {"mode": "controller", "from_ppn": 0, "to_ppn": plane_pages + 1},
        )  # no raise: the plane/parity rules only bind copy-back

    def test_corrupted_mapping(self, watched):
        ssd, sanitizer = watched
        ftl = ssd.ftl
        lpn = int(ftl.mapped_lpns()[0])
        free_ppns = np.flatnonzero(ftl.array.page_state_np == PageState.FREE)
        ftl.page_table[lpn] = int(free_ppns[-1])  # point a live lpn at a FREE page
        expect_rule("mapping-coherence", sanitizer.check_now)

    def test_reverse_map_mismatch(self, watched):
        ssd, sanitizer = watched
        ftl = ssd.ftl
        lpn_a, lpn_b = (int(l) for l in ftl.mapped_lpns()[:2])
        ftl.page_table[lpn_a] = ftl.page_table[lpn_b]  # valid page, wrong owner
        expect_rule("mapping-coherence", sanitizer.check_now)

    def test_double_erase(self, watched):
        ssd, sanitizer = watched
        block = int(np.flatnonzero(ssd.ftl.array.block_free_mask)[0])
        BUS.emit("array", "alloc_block", 0.0, 0.0, {"block": block, "plane": 0}, None, "i")
        BUS.emit("array", "erase", 0.0, 0.0, {"block": block}, None, "i")
        expect_rule(
            "double-erase",
            lambda: BUS.emit("array", "erase", 0.0, 0.0, {"block": block}, None, "i"),
        )

    def test_erase_of_pooled_block(self, watched):
        ssd, sanitizer = watched
        block = int(np.flatnonzero(ssd.ftl.array.block_free_mask)[0])
        expect_rule(
            "double-erase",
            lambda: BUS.emit("array", "erase", 0.0, 0.0, {"block": block}, None, "i"),
        )

    def test_program_into_pooled_block(self, watched):
        ssd, sanitizer = watched
        block = int(np.flatnonzero(ssd.ftl.array.block_free_mask)[0])
        ppn = block * ssd.geometry.pages_per_block
        expect_rule(
            "program-free-block",
            lambda: BUS.emit("array", "program", 0.0, 0.0, {"ppn": ppn, "owner": 1}, None, "i"),
        )

    def test_reprogram_of_valid_page(self, watched):
        ssd, sanitizer = watched
        ppn = int(np.flatnonzero(ssd.ftl.array.page_state_np == PageState.VALID)[0])
        block = ppn // ssd.geometry.pages_per_block
        # rewind the shadow write pointer so only the state check can fire
        sanitizer._shadow_ptr[block] = ppn % ssd.geometry.pages_per_block
        expect_rule(
            "reprogram",
            lambda: BUS.emit("array", "program", 0.0, 0.0, {"ppn": ppn, "owner": 1}, None, "i"),
        )

    def test_free_accounting_active_block_in_pool(self, watched):
        ssd, sanitizer = watched
        array = ssd.ftl.array
        free_block = int(np.flatnonzero(array.block_free_mask)[0])
        ssd.ftl.allocators[0].current_block = free_block
        expect_rule("free-accounting", sanitizer.check_now)

    def test_engine_time_running_backwards(self, watched):
        ssd, sanitizer = watched
        BUS.emit("engine", "dispatch", 100.0, 0.0, {"seq": 1}, None, "i")
        expect_rule(
            "event-order",
            lambda: BUS.emit("engine", "dispatch", 50.0, 0.0, {"seq": 2}, None, "i"),
        )

    def test_same_timestamp_out_of_order(self, watched):
        ssd, sanitizer = watched
        BUS.emit("engine", "dispatch", 100.0, 0.0, {"seq": 7}, None, "i")
        expect_rule(
            "event-order",
            lambda: BUS.emit("engine", "dispatch", 100.0, 0.0, {"seq": 3}, None, "i"),
        )

    def test_violation_is_counted_in_report(self, watched):
        ssd, sanitizer = watched
        with pytest.raises(SanitizerError):
            BUS.emit("engine", "dispatch", 100.0, 0.0, {"seq": 1}, None, "i")
            BUS.emit("engine", "dispatch", 50.0, 0.0, {"seq": 2}, None, "i")
        assert sanitizer.report()["violations"] == 1

    def test_snapshot_names_the_state(self, watched):
        ssd, sanitizer = watched
        ftl = ssd.ftl
        lpn = int(ftl.mapped_lpns()[0])
        free_ppns = np.flatnonzero(ftl.array.page_state_np == PageState.FREE)
        ftl.page_table[lpn] = int(free_ppns[-1])
        err = expect_rule("mapping-coherence", sanitizer.check_now)
        assert err.snapshot["lpn"] == lpn
        assert "free_blocks" in err.snapshot


class TestInjectedViolationsFanOut(FanOut, TestInjectedViolations):
    pass


# ---------------------------------------------------------------------------
# plane/channel occupancy races


def flash_span(name, ts, dur, plane=0, channel=0):
    BUS.emit("flash", name, ts, dur, {"plane": plane, "channel": channel}, None, "X")


class TestOccupancyRaces:
    def test_overlapping_plane_spans_raise(self, watched):
        ssd, sanitizer = watched
        flash_span("program", 100.0, 50.0)
        err = expect_rule("plane-occupancy", lambda: flash_span("read", 120.0, 10.0))
        assert err.snapshot["plane"] == 0
        assert err.snapshot["busy"][:2] == [100.0, 150.0]
        assert err.snapshot["span"] == [120.0, 130.0, "read"]

    def test_back_to_back_spans_are_legal(self, watched):
        ssd, sanitizer = watched
        flash_span("program", 100.0, 50.0)
        flash_span("read", 150.0, 10.0)  # starts exactly at the previous end

    def test_distinct_planes_may_overlap(self, watched):
        ssd, sanitizer = watched
        flash_span("program", 100.0, 50.0, plane=0)
        flash_span("program", 100.0, 50.0, plane=1)  # plane parallelism is the point

    def test_overlapping_channel_transfers_raise(self, watched):
        ssd, sanitizer = watched
        flash_span("xfer_in", 100.0, 20.0, plane=0, channel=1)
        expect_rule(
            "channel-occupancy",
            lambda: flash_span("xfer_out", 110.0, 5.0, plane=1, channel=1),
        )

    def test_copy_back_occupies_plane_but_no_channel(self, watched):
        ssd, sanitizer = watched
        BUS.emit("flash", "copy_back", 100.0, 200.0, {"plane": 0}, None, "X")
        flash_span("xfer_in", 150.0, 20.0, plane=1, channel=0)  # channel stays free
        expect_rule("plane-occupancy", lambda: flash_span("read", 150.0, 10.0, plane=0))

    def test_timeline_reset_clears_history(self, watched):
        ssd, sanitizer = watched
        flash_span("program", 5_000.0, 50.0)
        BUS.emit("flash", "timeline_reset", 0.0, 0.0, {}, None, "i")
        flash_span("read", 100.0, 10.0)  # pre-reset history must not bind

    def test_spans_are_counted_in_report(self, watched):
        ssd, sanitizer = watched
        before = sanitizer.spans_checked
        flash_span("program", 100.0, 50.0)
        flash_span("read", 150.0, 10.0)
        assert sanitizer.spans_checked == before + 2
        assert sanitizer.report()["spans_checked"] == sanitizer.spans_checked


class TestOccupancyRacesFanOut(FanOut, TestOccupancyRaces):
    pass


# ---------------------------------------------------------------------------
# trace_emit checks the hot rules inline: rule name, message text and
# snapshot below are the ones the layered checks raised before it


def program_event(ppn):
    BUS.emit("array", "program", 0.0, 0.0, {"ppn": ppn, "owner": 1}, None, "i")


class TestInlinedFastPaths:
    def test_program_into_pooled_block_text(self, watched):
        ssd, sanitizer = watched
        block = int(np.flatnonzero(ssd.ftl.array.block_free_mask)[0])
        ppn = block * ssd.geometry.pages_per_block
        err = expect_rule("program-free-block", lambda: program_event(ppn))
        assert str(err) == (
            f"[program-free-block] program of ppn {ppn} into block {block} which "
            f"is in the free pool | snapshot: {{'block': {block}}}"
        )
        # the rejected event was counted and left the shadow model alone
        assert sanitizer.report()["events_checked"] == 1
        assert sanitizer._shadow_state[ppn] == PageState.FREE
        assert sanitizer._shadow_ptr[block] == 0

    def test_program_behind_the_write_pointer_text(self, watched):
        ssd, sanitizer = watched
        array = ssd.ftl.array
        block = int(np.flatnonzero((array.block_write_ptr_np > 1) & ~array.block_free_mask)[0])
        pointer = int(array.block_write_ptr[block])
        ppn = block * ssd.geometry.pages_per_block
        err = expect_rule("program-order", lambda: program_event(ppn))
        assert str(err) == (
            f"[program-order] out-of-order program: offset 0 of block {block} behind "
            f"write pointer {pointer} | snapshot: {{'block': {block}}}"
        )

    def test_program_of_a_non_free_page_text(self, watched):
        ssd, sanitizer = watched
        ppb = ssd.geometry.pages_per_block
        ppn = int(np.flatnonzero(ssd.ftl.array.page_state_np == PageState.VALID)[0])
        # rewind the shadow write pointer so only the state check can fire
        sanitizer._shadow_ptr[ppn // ppb] = ppn % ppb
        err = expect_rule("reprogram", lambda: program_event(ppn))
        assert str(err) == (
            f"[reprogram] program of ppn {ppn} which was not erased since its last "
            f"program (state 1) | snapshot: {{'block': {ppn // ppb}}}"
        )

    def test_invalidate_of_a_non_valid_page_text(self, watched):
        ssd, sanitizer = watched
        ppn = int(np.flatnonzero(ssd.ftl.array.page_state_np == PageState.FREE)[-1])
        block = ppn // ssd.geometry.pages_per_block
        err = expect_rule(
            "invalidate-state",
            lambda: BUS.emit("array", "invalidate", 0.0, 0.0, {"ppn": ppn}, None, "i"),
        )
        assert str(err) == (
            f"[invalidate-state] invalidate of ppn {ppn} in state 0 (must be VALID) "
            f"| snapshot: {{'block': {block}}}"
        )
        assert sanitizer._shadow_state[ppn] == PageState.FREE

    def test_overlapping_plane_spans_text(self, watched):
        ssd, sanitizer = watched
        flash_span("program", 100.0, 50.0, plane=2, channel=1)
        err = expect_rule(
            "plane-occupancy", lambda: flash_span("read", 120.0, 10.0, plane=2, channel=1)
        )
        assert str(err) == (
            "[plane-occupancy] read on plane 2 starts at 120.0 us, inside the busy "
            "interval [100.0, 150.0) us of program; two operations cannot occupy one "
            "plane simultaneously | snapshot: {'plane': 2, 'busy': [100.0, 150.0, "
            "'program'], 'span': [120.0, 130.0, 'read']}"
        )
        # counted, not recorded: the plane is still busy with the program
        assert sanitizer.spans_checked == 2
        assert sanitizer._plane_busy == {2: (100.0, 150.0, "program")}

    def test_overlapping_channel_spans_text(self, watched):
        ssd, sanitizer = watched
        flash_span("xfer_in", 100.0, 20.0, plane=0, channel=1)
        err = expect_rule(
            "channel-occupancy", lambda: flash_span("xfer_out", 110.0, 5.0, plane=1, channel=1)
        )
        assert str(err) == (
            "[channel-occupancy] xfer_out on channel 1 starts at 110.0 us, inside the "
            "busy interval [100.0, 120.0) us of xfer_in; two operations cannot occupy "
            "one channel simultaneously | snapshot: {'channel': 1, 'busy': [100.0, "
            "120.0, 'xfer_in'], 'span': [110.0, 115.0, 'xfer_out']}"
        )
        assert sanitizer._channel_busy == {1: (100.0, 120.0, "xfer_in")}

    def test_span_without_its_resource_is_counted_but_not_checked(self, watched):
        ssd, sanitizer = watched
        BUS.emit("flash", "read", 100.0, 50.0, None, None, "X")
        BUS.emit("flash", "xfer_in", 100.0, 50.0, {"plane": 0}, None, "X")
        assert sanitizer.report()["events_checked"] == 2
        assert sanitizer.spans_checked == 0


class TestInlinedFastPathsFanOut(FanOut, TestInlinedFastPaths):
    pass


# ---------------------------------------------------------------------------
# one check per event: fields from the TraceBus or ``sanitizer(event)``


def _build_replay(geometry, n=300):
    from repro.traces.stream import stream_io_requests
    from repro.traces.synthetic import make_workload

    spec = make_workload("build", n, int(geometry.capacity_bytes * 0.5), seed=7)
    return stream_io_requests(spec, geometry)


def _routing_state(sanitizer):
    return {
        "report": sanitizer.report(),
        "shadow": [
            bytes(view) for view in (
                sanitizer._shadow_state, sanitizer._shadow_ptr,
                sanitizer._shadow_free, sanitizer._shadow_erased,
            )
        ],
        "busy": (sanitizer._plane_busy, sanitizer._channel_busy),
        "sweeps": (sanitizer.full_sweeps, sanitizer.delta_sweeps, sanitizer.cells_rechecked),
    }


def _cells():
    return [(name, "plain") for name in ftl_cases()] + [
        ("dloop", "zero-rate-faults"), ("dloop", "crash"),
    ]


@pytest.mark.parametrize("ftl_name,plan", _cells())
def test_routed_delivery_equals_direct_calls(ftl_name, plan):
    """Two sanitizers watch one run: ``routed`` is attached (the bus
    calls its ``trace_emit`` with each event's fields), ``direct`` is fed
    ``sanitizer(event)`` by a plain subscriber.  Same events, same live
    state at every sweep: they must end indistinguishable."""
    geometry = SSDGeometry(
        channels=2, packages_per_channel=1, chips_per_package=1,
        dies_per_chip=1, planes_per_die=2, blocks_per_plane=48,
        pages_per_block=16, page_size=512, extra_blocks_percent=25.0,
    )
    name, kwargs = resolve(ftl_name)
    ssd = SimulatedSSD(
        geometry, ftl=name, faults={} if plan == "zero-rate-faults" else None, **kwargs
    )
    ssd.precondition(0.6)
    routed = SimSanitizer(ssd.ftl).attach()
    direct = SimSanitizer(ssd.ftl)
    events = []

    def feed(event):
        events.append(event)
        direct(event)

    BUS.subscribe(feed)

    def sweep_both():  # what SimulatedSSD(sanitize=True) does for its one
        routed.check_now()
        direct.check_now()

    source = _build_replay(geometry)
    if plan == "crash":
        _, source = ssd.run_with_crash(source, 20_000.0, queue_depth=8)
        assert 0 < ssd.stats.count < 300  # guard: the cut fell mid-run
        sweep_both()
    ssd.run_stream(source, queue_depth=8)
    sweep_both()
    BUS.unsubscribe(feed)
    routed_report, direct_report = routed.finalize(), direct.finalize()
    assert routed_report == direct_report
    assert routed_report["events_checked"] == len(events) > 0
    assert routed_report["violations"] == 0
    assert _routing_state(routed) == _routing_state(direct)
    kinds = {(event.category, event.name) for event in events}
    assert ("array", "program") in kinds and routed_report["spans_checked"] > 0


# ---------------------------------------------------------------------------
# facade integration


class TestFacade:
    def test_device_kwarg_attaches_and_exposes(self, small_geometry):
        ssd = SimulatedSSD(small_geometry, sanitize=True)
        assert ssd.sanitizer is not None
        assert BUS.subscriber_count == 1
        ssd.sanitizer.finalize()
        assert BUS.subscriber_count == 0

    def test_run_simulation_folds_report_into_extras(self, small_geometry):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_simulation
        from repro.traces.synthetic import generate, make_workload

        config = ExperimentConfig(geometry=small_geometry, ftl="dloop",
                                  precondition_fill=0.5)
        # footprint must cover one workload chunk; offsets wrap mod capacity
        spec = make_workload("financial1", num_requests=200,
                             footprint_bytes=256 * 1024, seed=5)
        result = run_simulation(generate(spec), config, sanitize=True)
        assert result.extras["sanitizer"]["violations"] == 0
        assert BUS.subscriber_count == 0


# ---------------------------------------------------------------------------
# delta sweeps — after one clean sweep only the changed cells' closure is
# rechecked; each sabotage below fails if the delta path skipped the cell


@pytest.fixture(params=["dloop"])
def swept(request, small_geometry):
    """A lightly-used SSD whose sanitizer already holds a clean base."""
    ssd = SimulatedSSD(small_geometry, ftl=request.param)
    ssd.precondition(0.5)
    sanitizer = SimSanitizer(ssd.ftl).attach()
    sanitizer.check_now()
    assert (sanitizer.full_sweeps, sanitizer.delta_sweeps) == (1, 0)
    yield ssd, sanitizer
    sanitizer.detach()


def expect_delta_rule(rule, sanitizer):
    err = expect_rule(rule, sanitizer.check_now)
    # the verdict came from the delta path, not a second full sweep
    assert (sanitizer.full_sweeps, sanitizer.delta_sweeps) == (1, 1)
    return err


class TestDeltaSweeps:
    def test_clean_delta_sweep_rechecks_nothing(self, swept):
        ssd, sanitizer = swept
        sanitizer.check_now()
        assert sanitizer.delta_sweeps == 1
        assert sanitizer.cells_rechecked == 0

    def test_mapping_repointed_at_free_page(self, swept):
        ssd, sanitizer = swept
        ftl = ssd.ftl
        lpn = int(ftl.mapped_lpns()[0])
        free_ppns = np.flatnonzero(ftl.array.page_state_np == PageState.FREE)
        ftl.page_table[lpn] = int(free_ppns[-1])
        err = expect_delta_rule("mapping-coherence", sanitizer)
        assert err.snapshot["lpn"] == lpn

    def test_two_lpns_sharing_one_page(self, swept):
        ssd, sanitizer = swept
        ftl = ssd.ftl
        lpn_a, lpn_b = (int(l) for l in ftl.mapped_lpns()[:2])
        ftl.page_table[lpn_a] = ftl.page_table[lpn_b]
        expect_delta_rule("mapping-coherence", sanitizer)

    def test_owner_rewritten_state_untouched(self, swept):
        ssd, sanitizer = swept
        ftl = ssd.ftl
        lpn_a, lpn_b = (int(l) for l in ftl.mapped_lpns()[:2])
        ftl.array.page_owner[ftl.page_table[lpn_a]] = lpn_b
        expect_delta_rule("mapping-coherence", sanitizer)

    def test_state_flipped_with_no_event(self, swept):
        ssd, sanitizer = swept
        ftl = ssd.ftl
        lpn = int(ftl.mapped_lpns()[0])
        ftl.array.page_state[ftl.page_table[lpn]] = int(PageState.INVALID)
        expect_delta_rule("mapping-coherence", sanitizer)

    def test_valid_page_orphaned_by_unmapping(self, swept):
        ssd, sanitizer = swept
        ftl = ssd.ftl
        lpn = int(ftl.mapped_lpns()[0])
        ppn = int(ftl.page_table[lpn])
        ftl.page_table[lpn] = -1
        err = expect_delta_rule("mapping-coherence", sanitizer)
        assert err.snapshot["ppn"] == ppn

    @pytest.mark.parametrize("swept", ["dftl", "dloop"], indirect=True)
    def test_gtd_entry_repointed(self, swept):
        ssd, sanitizer = swept
        gtd = ssd.ftl.gtd
        tvpn = next(t for t in range(gtd.num_tpages) if gtd.is_mapped(t))
        free_ppns = np.flatnonzero(ssd.ftl.array.page_state_np == PageState.FREE)
        gtd.update(tvpn, int(free_ppns[-1]))
        err = expect_delta_rule("mapping-coherence", sanitizer)
        assert err.snapshot["tvpn"] == tvpn

    def test_failed_sweep_does_not_become_the_base(self, swept):
        ssd, sanitizer = swept
        ftl = ssd.ftl
        lpn = int(ftl.mapped_lpns()[0])
        ftl.page_table[lpn] = -1
        expect_rule("mapping-coherence", sanitizer.check_now)
        # still broken, still reported: the bad state was not snapshotted
        expect_rule("mapping-coherence", sanitizer.check_now)

    def test_finalize_is_full_even_with_tampered_snapshots(self, swept):
        ssd, sanitizer = swept
        ftl = ssd.ftl
        lpn = int(ftl.mapped_lpns()[0])
        ftl.page_table[lpn] = -1
        sanitizer._base[0][lpn] = -1  # hide the change from the diff
        sanitizer.check_now()  # the delta sweep is blind to it ...
        assert sanitizer.delta_sweeps == 1
        expect_rule("mapping-coherence", sanitizer.finalize)  # ... finalize is not
        assert sanitizer.full_sweeps == 2

    def test_public_surface_is_unchanged(self, swept):
        ssd, sanitizer = swept
        import inspect

        assert not inspect.signature(sanitizer.check_now).parameters
        assert list(sanitizer.report()) == [
            "events_checked", "migrations_checked", "spans_checked",
            "sweeps", "violations",
        ]
        assert sanitizer.report()["sweeps"] == (
            sanitizer.full_sweeps + sanitizer.delta_sweeps
        )

    def test_steady_state_sweeps_are_proportional_to_change(self):
        geometry = SSDGeometry(
            channels=2, packages_per_channel=1, chips_per_package=1,
            dies_per_chip=1, planes_per_die=2, blocks_per_plane=64,
            pages_per_block=32, page_size=512, extra_blocks_percent=10.0,
        )
        ssd = SimulatedSSD(geometry, ftl="dloop", sanitize=True)
        ssd.precondition(0.9)
        ssd.run(update_heavy_workload(geometry, n=3000))
        sanitizer = ssd.sanitizer
        assert ssd.ftl.gc_stats.passes > 100  # guard: steady-state GC
        assert sanitizer.full_sweeps == 1
        assert sanitizer.delta_sweeps >= ssd.ftl.gc_stats.passes
        full_cells = geometry.num_lpns + geometry.num_physical_pages
        per_sweep = sanitizer.cells_rechecked / sanitizer.delta_sweeps
        assert per_sweep < 0.05 * full_cells
        assert sanitizer.finalize()["violations"] == 0
        assert sanitizer.full_sweeps == 2


@st.composite
def corruptions(draw):
    """1-3 in-range single-cell overwrites of the mapping stores."""
    return draw(st.lists(
        st.tuples(st.sampled_from(["table", "state", "owner", "gtd"]),
                  st.integers(0, 2**31), st.integers(0, 2**31)),
        min_size=1, max_size=3,
    ))


def corrupt(ftl, cells):
    array = ftl.array
    n_lpns, n_pages = len(ftl.page_table), len(array.page_state)
    for store, where, what in cells:
        if store == "table":
            ftl.page_table[where % n_lpns] = what % (n_pages + 1) - 1
        elif store == "state":
            array.page_state[where % n_pages] = what % 3
        elif store == "owner":
            # OWNER_NONE, a data owner or (with a GTD) a translation owner
            gtd = getattr(ftl, "gtd", None)
            low = -1 if gtd is None else -1 - gtd.num_tpages
            array.page_owner[where % n_pages] = low + what % (n_lpns - low)
        elif getattr(ftl, "gtd", None) is not None:
            ftl.gtd.update(where % ftl.gtd.num_tpages, what % (n_pages + 1) - 1)


def verdict(sanitizer):
    try:
        sanitizer.check_now()
    except SanitizerError as err:
        return err.rule
    return None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    ftl_name=st.sampled_from(["dloop", "dftl", "fast", "pagemap"]),
    seed=st.integers(0, 2**16),
    n=st.integers(20, 200),
    cells=corruptions(),
)
def test_delta_and_full_sweeps_agree(ftl_name, seed, n, cells):
    geometry = SSDGeometry(
        channels=2, packages_per_channel=1, chips_per_package=1,
        dies_per_chip=1, planes_per_die=2, blocks_per_plane=16,
        pages_per_block=8, page_size=256, extra_blocks_percent=25.0,
    )
    try:
        ssd = SimulatedSSD(geometry, ftl=ftl_name, sanitize=True)
        ssd.precondition(0.7)
        ssd.run(update_heavy_workload(geometry, n=n, seed=seed))
        delta = ssd.sanitizer
        swept_before = delta.delta_sweeps
        # Same shadow model (seeded now, no event follows), no base yet:
        # its first sweep is the full form.
        full = SimSanitizer(ssd.ftl)
        corrupt(ssd.ftl, cells)
        assert verdict(delta) == verdict(full)
        assert (delta.full_sweeps, delta.delta_sweeps) == (1, swept_before + 1)
        assert (full.full_sweeps, full.delta_sweeps) == (1, 0)
    finally:
        BUS.clear()


# ---------------------------------------------------------------------------
# shadow-divergence — the array drifting from what its own events said


class TestShadowDivergence:
    def test_page_state_mutated_behind_the_bus(self, swept):
        ssd, sanitizer = swept
        array = ssd.ftl.array
        # FREE -> INVALID breaks no mapping invariant: only the shadow knows
        ppn = int(np.flatnonzero(array.page_state_np == PageState.FREE)[-1])
        array.page_state[ppn] = int(PageState.INVALID)
        err = expect_delta_rule("shadow-divergence", sanitizer)
        assert err.snapshot["ppn"] == ppn

    def test_event_with_no_array_mutation_is_caught_at_finalize(self, swept):
        ssd, sanitizer = swept
        ppn = int(np.flatnonzero(ssd.ftl.array.page_state_np == PageState.VALID)[0])
        BUS.emit("array", "invalidate", 0.0, 0.0, {"ppn": ppn}, None, "i")
        expect_rule("shadow-divergence", sanitizer.finalize)

    def test_write_pointer_mutated_behind_the_bus(self, swept):
        ssd, sanitizer = swept
        array = ssd.ftl.array
        block = int(np.flatnonzero(array.block_write_ptr_np > 0)[0])
        array.block_write_ptr[block] -= 1
        err = expect_delta_rule("shadow-divergence", sanitizer)
        assert err.snapshot["block"] == block

    def test_detached_sanitizer_stops_vouching_for_its_shadow(self, swept):
        ssd, sanitizer = swept
        sanitizer.detach()
        lpn = int(ssd.ftl.mapped_lpns()[0])
        ssd.ftl.write_page(lpn, 0.0)  # array moves on, nobody is listening
        sanitizer.check_now()  # mapping is coherent; the stale shadow is ignored
