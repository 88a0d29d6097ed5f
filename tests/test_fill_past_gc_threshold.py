"""Page-mapped devices filled past their GC threshold end in typed errors.

One channel of 8-page blocks, preconditioned to 90 % and 100 % of the
logical space: with one extra block per plane such fills leave fewer
free blocks than ``gc_threshold``.  Random one-page writes then either
complete or fail per request with the FTL's "device full" error, the
run never hangs, and the mapping stays coherent.  How many fail is not
asserted: that is the device's capacity, not its correctness.
"""

import random

import pytest

from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.sim.request import IoOp, IoRequest

REQUESTS = 400


def _geometry(planes: int, blocks: int) -> SSDGeometry:
    # 256-byte pages hold 64 map entries, so the map spans several
    # translation pages that GC has to keep reachable too.
    return SSDGeometry(channels=1, packages_per_channel=1, chips_per_package=1,
                       dies_per_chip=1, planes_per_die=planes, blocks_per_plane=blocks,
                       pages_per_block=8, page_size=256)


@pytest.mark.parametrize("fill", [0.9, 1.0])
@pytest.mark.parametrize("planes, blocks", [(2, 16), (1, 16), (2, 17)],
                         ids=["2x16", "1x16", "2x17"])
@pytest.mark.parametrize("ftl", ["dloop", "dftl", "pagemap", "dloop-hc"])
def test_every_write_completes_or_fails_typed(ftl, planes, blocks, fill):
    geometry = _geometry(planes, blocks)
    ssd = SimulatedSSD(geometry, ftl=ftl)
    ssd.precondition(fill)
    rng = random.Random(f"{ftl}|{planes}x{blocks}|{fill}")
    requests = [IoRequest(i * 100.0, rng.randrange(geometry.num_lpns), 1, IoOp.WRITE)
                for i in range(REQUESTS)]
    ssd.run_stream(iter(requests), queue_depth=1)
    failed = [r for r in requests if r.error is not None]
    assert all(r.completion_us >= r.arrival_us for r in requests)
    assert all(r.error.endswith("— device full") for r in failed), {r.error for r in failed}
    assert ssd.stats.failed_requests == len(failed)
    ssd.verify()
