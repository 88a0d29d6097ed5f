"""Closed-form oracle for greedy garbage collection under uniform writes.

For a page-mapped device with over-provisioning factor α (physical
over logical capacity), uniform random overwrites and greedy victim
selection, write amplification has the closed form

    A(α) = α / (α + W₀(−α·e^(−α)))

where W₀ is the principal branch of the Lambert W function (Desnoyers,
"Analytic modeling of SSD write performance", SYSTOR 2012; Hu et al.,
SYSTOR 2009).  The simulator keeps ``gc_threshold`` free blocks per
plane in reserve, so the space GC actually works with is α less that
reserve: the measured WA must lie between the model at α and the model
at the reduced α.  The cell is ``pagemap`` with copy-back off, so every
relocation is one program on the flash counters and no parity skip
wastes a page.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.registry import create_ftl

#: Free blocks per plane that GC keeps back (``Ftl``'s ``gc_threshold``).
GC_RESERVE_BLOCKS = 3


def lambert_w0(x: float) -> float:
    """Principal branch of Lambert W on [-1/e, 0], by Newton iteration."""
    if not -1.0 / math.e <= x <= 0.0:
        raise ValueError(f"lambert_w0 is defined here on [-1/e, 0], not {x}")
    w = -0.5
    for _ in range(100):
        ew = math.exp(w)
        step = (w * ew - x) / (ew * (w + 1.0))
        w -= step
        if abs(step) < 1e-15:
            break
    return w


def greedy_uniform_wa(alpha: float) -> float:
    """Write amplification of greedy GC under uniform random writes."""
    return alpha / (alpha + lambert_w0(-alpha * math.exp(-alpha)))


def test_lambert_w0_inverts_w_times_exp_w():
    for w in (-0.99, -0.5, -0.1, 0.0):
        assert lambert_w0(w * math.exp(w)) == pytest.approx(w, abs=1e-12)
    with pytest.raises(ValueError):
        lambert_w0(0.5)


def test_model_rows():
    # the lower band edges of the cells below; less spare space, more WA
    assert greedy_uniform_wa(1.1) == pytest.approx(5.6775, abs=1e-4)
    assert greedy_uniform_wa(1.25) == pytest.approx(2.6927, abs=1e-4)
    assert greedy_uniform_wa(1.5) < greedy_uniform_wa(1.25) < greedy_uniform_wa(1.1)


def _measured_wa(blocks_per_plane: int, extra_percent: float, seed: int) -> tuple:
    """WA of one cell, and the α it ran at: every LPN written once, two
    physical capacities of uniform overwrites to reach steady state,
    then programs per host write over two more."""
    geometry = SSDGeometry(channels=2, dies_per_chip=1, planes_per_die=2,
                           blocks_per_plane=blocks_per_plane, pages_per_block=64,
                           page_size=512, extra_blocks_percent=extra_percent)
    ftl = create_ftl("pagemap", geometry, TimingParams(), use_copyback=False,
                     gc_threshold=GC_RESERVE_BLOCKS)
    lpns = geometry.num_lpns
    physical = geometry.num_physical_blocks * geometry.pages_per_block
    write_page = ftl.write_page
    for lpn in range(lpns):
        write_page(lpn, 0.0)
    rng = random.Random(seed)
    randrange = rng.randrange
    for _ in range(2 * physical):
        write_page(randrange(lpns), 0.0)
    counters, stats = ftl.clock.counters, ftl.stats
    programs, host_writes = counters.programs, stats.host_writes
    for _ in range(2 * physical):
        write_page(randrange(lpns), 0.0)
    assert counters.copybacks == 0 and ftl.gc_stats.wasted_pages == 0
    ftl.verify_integrity()
    wa = (counters.programs - programs) / (stats.host_writes - host_writes)
    return wa, geometry.physical_blocks_per_plane / blocks_per_plane


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("blocks_per_plane,extra_percent,alpha", (
    (120, 10.0, 1.1),
    (100, 25.0, 1.25),
))
def test_greedy_gc_lands_between_the_model_rows(blocks_per_plane, extra_percent, alpha, seed):
    wa, measured_alpha = _measured_wa(blocks_per_plane, extra_percent, seed)
    assert measured_alpha == pytest.approx(alpha)
    usable = alpha - GC_RESERVE_BLOCKS / blocks_per_plane
    assert greedy_uniform_wa(alpha) < wa < greedy_uniform_wa(usable), (
        f"α={alpha}: WA {wa:.3f} outside [{greedy_uniform_wa(alpha):.3f}, "
        f"{greedy_uniform_wa(usable):.3f}]"
    )
