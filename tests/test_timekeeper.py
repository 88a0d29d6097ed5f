"""Timing model: operation latencies, resource contention, parallelism."""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.timekeeper import FlashTimekeeper
from repro.flash.timing import TimingParams
from repro.obs.tracebus import BUS


@pytest.fixture
def clock(small_geometry, timing):
    return FlashTimekeeper(small_geometry, timing)


XFER = 0.2 + 256 * 0.025  # cmd/addr + 256-byte page transfer


def test_read_latency_when_idle(clock):
    end = clock.read_page(0, 0.0)
    assert end == pytest.approx(25.0 + XFER)
    assert clock.counters.reads == 1


def test_program_latency_when_idle(clock):
    end = clock.program_page(0, 0.0)
    assert end == pytest.approx(XFER + 200.0)
    assert clock.counters.programs == 1


def test_erase_latency_when_idle(clock):
    end = clock.erase_block(0, 0.0)
    assert end == pytest.approx(0.2 + 2000.0)
    assert clock.counters.erases == 1


def test_copy_back_latency_and_no_channel_use(clock):
    end = clock.copy_back(0, 0.0)
    assert end == pytest.approx(225.0)
    # the channel is untouched: a transfer on the same channel starts at 0
    channel = clock.geometry.plane_to_channel(0)
    assert clock.channel_free[channel] == 0.0
    assert clock.counters.copybacks == 1


def test_inter_plane_copy_latency(clock):
    """Fig. 2: read + out-transfer + in-transfer + program."""
    src, dst = 0, 1  # distinct planes, distinct channels in small geometry
    end = clock.inter_plane_copy(src, dst, 0.0)
    assert end == pytest.approx(25.0 + XFER + XFER + 200.0)
    assert clock.counters.interplane_copies == 1


def test_copy_back_saves_about_30_percent(paper_geometry, timing):
    """The ~30% figure holds for the paper's 2 KB pages (Section III.A)."""
    clock = FlashTimekeeper(paper_geometry, timing)
    cb = clock.copy_back(0, 0.0)
    clock2 = FlashTimekeeper(paper_geometry, timing)
    ip = clock2.inter_plane_copy(0, 1, 0.0)
    saving = (ip - cb) / ip
    assert 0.25 < saving < 0.35  # paper: "can be 30% faster"


def test_same_plane_operations_serialize(clock):
    first = clock.program_page(0, 0.0)
    second = clock.program_page(0, 0.0)
    assert second > first


def test_different_planes_same_channel_share_bus_only(clock):
    geom = clock.geometry
    # planes 0 and 2 share channel 0 in the 2-channel small geometry
    assert geom.plane_to_channel(0) == geom.plane_to_channel(2)
    end0 = clock.program_page(0, 0.0)
    end2 = clock.program_page(2, 0.0)
    # second write waits only for the bus transfer, then programs in parallel
    assert end2 == pytest.approx(end0 + XFER)


def test_different_channels_fully_parallel(clock):
    geom = clock.geometry
    assert geom.plane_to_channel(0) != geom.plane_to_channel(1)
    end0 = clock.program_page(0, 0.0)
    end1 = clock.program_page(1, 0.0)
    assert end1 == pytest.approx(end0)


def test_concurrent_copy_backs_overlap_fully(clock):
    """Fig. 3: multiple copy-backs on different planes at once."""
    ends = [clock.copy_back(p, 0.0) for p in range(clock.geometry.num_planes)]
    assert all(end == pytest.approx(225.0) for end in ends)


def test_copy_back_does_not_block_other_planes_bus(clock):
    clock.copy_back(0, 0.0)
    # a read on plane 2 (same channel as plane 0) is not delayed
    end = clock.read_page(2, 0.0)
    assert end == pytest.approx(25.0 + XFER)


def test_plane_request_counters(clock):
    clock.read_page(1, 0.0)
    clock.program_page(1, 0.0)
    clock.copy_back(1, 0.0)
    clock.erase_block(1, 0.0)
    assert clock.counters.plane_ops[1] == 4
    assert clock.counters.plane_ops[0] == 0


def test_inter_plane_copy_counts_read_and_program(clock):
    clock.inter_plane_copy(0, 1, 0.0)
    assert clock.counters.reads == 1
    assert clock.counters.programs == 1
    assert clock.counters.plane_ops[0] == 1
    assert clock.counters.plane_ops[1] == 1


_TIMES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)


# the fixtures are frozen dataclasses: sharing them across examples is safe
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    plane_free=st.lists(_TIMES, min_size=4, max_size=4),
    channel_free=st.lists(_TIMES, min_size=2, max_size=2),
    copies=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), _TIMES),
                    min_size=1, max_size=6),
)
def test_inter_plane_copy_is_read_then_program(small_geometry, timing, plane_free, channel_free,
                                               copies):
    """The flat body against the composition it replaced: completion
    time, both timelines, every counter (the float accumulators bit for
    bit) and the emitted events — ``src == dst`` and same-channel pairs
    (planes 0/2 and 1/3) included."""
    flat = FlashTimekeeper(small_geometry, timing)
    twin = FlashTimekeeper(small_geometry, timing)
    for clock in (flat, twin):
        clock.plane_free[:] = plane_free
        clock.channel_free[:] = channel_free
    for src, dst, start in copies:
        with BUS.capture() as flat_events:
            flat_end = flat.inter_plane_copy(src, dst, start)
        with BUS.capture() as twin_events:
            twin_end = twin.program_page(dst, twin.read_page(src, start))
            twin.counters.interplane_copies += 1
            BUS.emit("flash", "inter_plane_copy", start, 0.0,
                     {"src_plane": src, "dst_plane": dst}, None, "i")
        assert flat_end == twin_end
        assert flat_events == twin_events
        assert flat.plane_free == twin.plane_free
        assert flat.channel_free == twin.channel_free
        assert asdict(flat.counters) == asdict(twin.counters)


def test_reset_measurements_zeros_everything(clock):
    clock.program_page(0, 0.0)
    clock.reset_measurements()
    assert max(clock.plane_free) == 0.0
    assert max(clock.channel_free) == 0.0
    assert clock.counters.programs == 0
    assert sum(clock.counters.plane_ops) == 0


def test_quiesce_time(clock):
    assert clock.quiesce_time() == 0.0
    end = clock.program_page(3, 10.0)
    assert clock.quiesce_time() == pytest.approx(end)


def test_start_time_respected(clock):
    end = clock.read_page(0, 1000.0)
    assert end == pytest.approx(1000.0 + 25.0 + XFER)


def test_custom_timing_parameters(small_geometry):
    timing = TimingParams(page_read_us=10, page_program_us=100, bus_per_byte_us=0.0, cmd_addr_us=0.0)
    clock = FlashTimekeeper(small_geometry, timing)
    assert clock.copy_back(0, 0.0) == pytest.approx(110.0)
    assert clock.program_page(1, 0.0) == pytest.approx(100.0)


# ---- channel serialisation (a die's serial bus, Fig. 1b, rides its channel) ---


def multi_chip_geometry():
    from repro.flash.geometry import SSDGeometry

    # 1 channel shared by 2 chips x 1 die x 2 planes = 4 planes, 2 dies
    return SSDGeometry(
        channels=1,
        packages_per_channel=1,
        chips_per_package=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=8,
        page_size=256,
        extra_blocks_percent=25.0,
    )


def test_channel_serialises_same_die_transfers(timing):
    geom = multi_chip_geometry()
    clock = FlashTimekeeper(geom, timing)
    # one channel: die d holds planes 2d and 2d + 1
    end0 = clock.program_page(0, 0.0)
    end1 = clock.program_page(1, 0.0)
    # same die: second transfer waits for the bus (the die's serial bus
    # is held exactly as long as its channel), programs overlap
    assert end1 > 0
    xfer = timing.page_transfer_us(geom.page_size)
    assert end1 == pytest.approx(end0 + xfer)


def test_die_bus_separate_from_channel(timing):
    """Same channel, different dies: the shared channel still serialises
    transfers, so a per-die bus timeline would add no delay there."""
    geom = multi_chip_geometry()
    clock = FlashTimekeeper(geom, timing)
    # one channel: plane 0 is on die 0, plane 2 on die 1
    end0 = clock.program_page(0, 0.0)
    end1 = clock.program_page(2, 0.0)
    assert end1 == pytest.approx(end0 + timing.page_transfer_us(geom.page_size))


def test_reset_zeroes_a_shared_channel_timeline(timing):
    geom = multi_chip_geometry()
    clock = FlashTimekeeper(geom, timing)
    clock.program_page(0, 0.0)
    clock.reset_measurements()
    assert clock.quiesce_time() == 0.0
