"""One definition of busy time, and the laws that hold it.

A plane is busy from when its register or array is first held until it
is released (``repro.flash.timekeeper``).  Two laws follow, checked on
every registry entry under a burst that queues ops behind busy planes:

* no plane or channel is busy longer than the makespan;
* a plane's ``plane_busy_us`` is the length of the union of its hold
  intervals, rebuilt from the TraceBus ``flash`` events (a program's
  hold starts at its ``xfer_in``).
"""

from collections import defaultdict
from functools import lru_cache

import pytest

from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.flash.timekeeper import FlashTimekeeper
from repro.flash.timing import TimingParams
from repro.obs.tracebus import BUS
from repro.sim.request import IoOp, IoRequest
from tests.ftl_cases import ftl_cases, resolve

#: a program on an idle plane: cmd/addr + 2 KB transfer + 200 us array time
PROGRAM_US = 0.2 + 2048 * 0.025 + 200.0


def _one_plane_clock() -> FlashTimekeeper:
    geometry = SSDGeometry(channels=1, packages_per_channel=1, chips_per_package=1,
                           dies_per_chip=1, planes_per_die=1, blocks_per_plane=16,
                           pages_per_block=8)
    return FlashTimekeeper(geometry, TimingParams())


def test_back_to_back_programs_are_busy_for_the_makespan():
    clock = _one_plane_clock()
    clock.program_page(0, 0.0)
    end = clock.program_page(0, 0.0)
    assert end == pytest.approx(PROGRAM_US + 200.0)
    assert clock.counters.plane_busy_us[0] == pytest.approx(end)


def test_back_to_back_erases_count_the_array_time_only():
    clock = _one_plane_clock()
    clock.erase_block(0, 0.0)
    end = clock.erase_block(0, 0.0)
    assert end == pytest.approx(4000.2)
    # the command cycles ride the channel; the plane holds for the erases
    assert clock.counters.plane_busy_us[0] == pytest.approx(4000.0)
    assert clock.counters.channel_busy_us[0] == pytest.approx(0.4)


def test_inter_plane_copy_into_a_busy_plane_counts_from_its_release():
    clock = FlashTimekeeper(SSDGeometry(channels=1, packages_per_channel=1,
                                        chips_per_package=1, dies_per_chip=1,
                                        planes_per_die=2, blocks_per_plane=16,
                                        pages_per_block=8), TimingParams())
    release = clock.erase_block(1, 0.0)
    end = clock.inter_plane_copy(0, 1, 0.0)
    assert end == pytest.approx(release + 200.0)
    assert clock.counters.plane_busy_us[1] == pytest.approx(end - 0.2)


def _geometry() -> SSDGeometry:
    return SSDGeometry(channels=2, packages_per_channel=1, chips_per_package=1,
                       dies_per_chip=1, planes_per_die=2, blocks_per_plane=16,
                       pages_per_block=8, page_size=256, extra_blocks_percent=25.0)


def _burst(num_lpns: int, count: int = 150):
    """One- and two-page requests, a tenth of them reads, all arriving at
    once: ops queue behind busy planes and channels, and the overwrites
    of a 70 % full device reach GC or merges on every FTL."""
    return [
        IoRequest(arrival_us=0.0, start_lpn=(i * 37) % (num_lpns - 2),
                  page_count=1 + i % 2, op=IoOp.READ if i % 10 == 0 else IoOp.WRITE)
        for i in range(count)
    ]


def _union_us(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - (start if start > reach else reach)
        reach = end
    return total


def _hold_intervals(events):
    """Per plane, the intervals its register or array was held."""
    holds = defaultdict(list)
    programs = {}
    for event in events:
        if event.category != "flash":
            continue
        args = event.args or {}
        end = event.ts_us + event.duration_us
        if event.name in ("read", "erase", "copy_back"):
            holds[args["plane"]].append((event.ts_us, end))
        elif event.name == "program":
            programs[args["plane"]] = end
        elif event.name == "xfer_in":
            # emitted right after its program: the hold spans both
            holds[args["plane"]].append((event.ts_us, programs.pop(args["plane"])))
    assert not programs
    return holds


@lru_cache(maxsize=None)
def _burst_run(case: str):
    name, kwargs = resolve(case)
    ssd = SimulatedSSD(_geometry(), ftl=name, **kwargs)
    ssd.precondition(0.7)
    with BUS.capture() as events:
        ssd.run(_burst(ssd.geometry.num_lpns))
    return ssd, events


@pytest.mark.parametrize("case", ftl_cases())
def test_no_resource_is_busy_longer_than_the_makespan(case):
    ssd, _ = _burst_run(case)
    counters = ssd.counters
    makespan = ssd.ftl.clock.quiesce_time()
    assert counters.erases > 0, "the burst should reach GC or merges"
    for plane, busy in enumerate(counters.plane_busy_us):
        assert busy <= makespan * (1 + 1e-12), f"plane {plane}"
    for channel, busy in enumerate(counters.channel_busy_us):
        assert busy <= makespan * (1 + 1e-12), f"channel {channel}"


@pytest.mark.parametrize("case", ftl_cases())
def test_plane_busy_is_the_union_of_its_holds(case):
    ssd, events = _burst_run(case)
    holds = _hold_intervals(events)
    for plane, busy in enumerate(ssd.counters.plane_busy_us):
        assert busy == pytest.approx(_union_us(holds[plane]), rel=1e-9, abs=1e-6), \
            f"plane {plane}"
