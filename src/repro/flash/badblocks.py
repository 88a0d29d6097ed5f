"""Bad-block management.

Section I: "The flash controller manages the entire flash SSD including
error correction, the interface with flash memory, and servicing host
requests" — part of which is retiring blocks that arrive bad from the
factory or wear out (the finite-erasure-cycles limitation).

The manager installs itself as the array's ``retirement_policy``: at
release time a block whose erase count reached its (per-block sampled)
endurance is retired instead of pooled.  Endurance is sampled once per
block around the rated cycle count, seeded for reproducibility —
deterministic reruns, heterogeneous blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.array import FlashArray


@dataclass
class BadBlockStats:
    factory_bad: int = 0
    worn_out: int = 0
    #: blocks retired while allocated (valid pages relocated first)
    runtime_retired: int = 0


class BadBlockManager:
    """Factory bad blocks + wear-out retirement for a flash array."""

    def __init__(
        self,
        array: FlashArray,
        *,
        rated_cycles: int = 3000,
        endurance_spread: float = 0.2,
        factory_bad_rate: float = 0.002,
        seed: int = 0,
    ):
        if rated_cycles < 1:
            raise ValueError("rated_cycles must be >= 1")
        if not 0.0 <= endurance_spread < 1.0:
            raise ValueError("endurance_spread must be in [0, 1)")
        if not 0.0 <= factory_bad_rate < 1.0:
            raise ValueError("factory_bad_rate must be in [0, 1)")
        self.array = array
        self.rated_cycles = rated_cycles
        self.stats = BadBlockStats()
        rng = np.random.default_rng(seed)
        n_blocks = array.geometry.num_physical_blocks
        # per-block endurance: rated +- spread, uniform
        low = rated_cycles * (1.0 - endurance_spread)
        high = rated_cycles * (1.0 + endurance_spread)
        self.endurance = rng.uniform(low, high, size=n_blocks).astype(np.int64)
        # Precomputed for the telemetry fast path: one fused dot product
        # per sampler tick instead of boolean-mask temporaries.
        self._inv_endurance = 1.0 / self.endurance.astype(np.float64)
        # factory bad blocks, sampled before any traffic
        bad = rng.random(n_blocks) < factory_bad_rate
        for block in np.flatnonzero(bad):
            self.array.mark_bad(int(block))
            self.stats.factory_bad += 1
        array.retirement_policy = self._should_retire

    def _should_retire(self, block: int) -> bool:
        if self.array.block_erase_count[block] >= self.endurance[block]:
            self.stats.worn_out += 1
            return True
        return False

    def retire(self, ftl, block: int, now: float = 0.0) -> float:
        """Retire ``block`` regardless of its state (runtime scan hit).

        ``mark_bad`` only accepts pooled free blocks; a block found bad
        while *allocated* — possibly holding valid host data — must
        first have its surviving pages relocated.  Delegates to the
        FTL's runtime-retirement path and returns the time after any
        relocation traffic.
        """
        if ftl.array is not self.array:
            raise ValueError("ftl is not backed by this manager's array")
        if self.array.is_block_bad(block):
            return now
        was_free = self.array.is_block_free(block)
        t = ftl.retire_block_now(block, now)
        if not was_free:
            self.stats.runtime_retired += 1
        return t

    # ---- reporting ---------------------------------------------------------
    #
    # Both fractions are cheap enough to read every StatsSampler tick:
    # retired_fraction is O(1) off the array's live counter;
    # remaining_life_fraction is a fused dot product with no boolean
    # temporaries (bad blocks are rare — their correction term indexes
    # only when any exist).  The sampler itself publishes the raw
    # bad-block count.

    def retired_fraction(self) -> float:
        return self.array.bad_block_count() / self.array.geometry.num_physical_blocks

    def remaining_life_fraction(self) -> float:
        """Mean unused endurance across live blocks (1.0 = fresh)."""
        n_bad = self.array.bad_block_count()
        alive = self.array.geometry.num_physical_blocks - n_bad
        if alive == 0:
            return 0.0
        used = float(np.dot(self.array.block_erase_count_np, self._inv_endurance))
        if n_bad:
            bad = self.array.bad_block_mask
            used -= float(
                np.dot(self.array.block_erase_count_np[bad], self._inv_endurance[bad])
            )
        return min(1.0, max(0.0, 1.0 - used / alive))
