"""Garbage-collection policy helpers shared by all FTLs.

Victim selection follows Section III.C: the non-free block on the plane
with the *most invalid pages* is chosen, excluding blocks an allocator
is actively filling.  Blocks with zero invalid pages are never victims
(erasing them reclaims nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.flash.array import FlashArray


@dataclass
class GcStats:
    invocations: int = 0
    passes: int = 0
    emergency_passes: int = 0
    background_passes: int = 0
    erased_blocks: int = 0
    moved_pages: int = 0
    copyback_moves: int = 0
    controller_moves: int = 0
    wasted_pages: int = 0
    translation_updates: int = 0
    busy_us: float = 0.0


def parity_minimizing_order(ppns, codec, allocator):
    """Yield victim pages ordered to match destination page parity.

    The copy-back rule requires source and destination page offsets to
    share parity (Section III.A).  Since relocations within one GC pass
    are order-free, serving whichever source page matches the
    destination's next offset reduces wasted skips to (at most) the
    imbalance between even- and odd-parity sources — the paper's "m/2
    in the worst case, rarely happens" behaviour (Section III.A).
    """
    from collections import deque

    evens = deque(p for p in ppns if codec.page_parity(p) == 0)
    odds = deque(p for p in ppns if codec.page_parity(p) == 1)
    while evens or odds:
        want_odd = allocator.next_offset() & 1
        if want_odd:
            yield odds.popleft() if odds else evens.popleft()
        else:
            yield evens.popleft() if evens else odds.popleft()


#: Available victim-selection policies (see :func:`select_victim`).
VICTIM_POLICIES = ("greedy", "cost-benefit", "fifo", "random")


def select_victim(
    array: FlashArray,
    plane: int,
    exclude: Iterable[int] = (),
    max_valid: Optional[int] = None,
    policy: str = "greedy",
    rng=None,
) -> Optional[int]:
    """Pick a reclaimable block on ``plane``, or None.

    Candidates: allocated blocks with >= 1 invalid page, not excluded
    (active write points), and within ``max_valid`` (feasibility guard:
    a pass must never strand valid pages mid-move).  Policies:

    * ``greedy`` — most invalid pages (Section III.C, the default);
    * ``cost-benefit`` — maximise ``age * invalid / (valid + 1)``, the
      classic LFS/Janus rule that lets cold blocks ripen;
    * ``fifo`` — the least recently written candidate;
    * ``random`` — uniform over candidates (needs ``rng``).
    """
    if policy not in VICTIM_POLICIES:
        raise ValueError(f"policy must be one of {VICTIM_POLICIES}")
    if policy == "greedy":
        # Scalar scan: a plane holds ~10^2 blocks, far below numpy's
        # break-even, and greedy runs on every foreground GC pass.
        # Ties break on the lowest block id (matches np.argmax).
        blocks = array.plane_blocks(plane)
        block_invalid = array.block_invalid
        block_valid = array.block_valid
        free_mask = array._block_is_free
        bad_mask = array._block_is_bad
        excluded = {b for b in exclude if b is not None}
        best = None
        best_invalid = 0
        for block in range(blocks.start, blocks.stop):
            inv = block_invalid[block]
            if (
                inv > best_invalid
                and not free_mask[block]
                and not bad_mask[block]
                and block not in excluded
                and (max_valid is None or block_valid[block] <= max_valid)
            ):
                best = block
                best_invalid = inv
        return best
    blocks = array.plane_blocks(plane)
    invalid = array.block_invalid_np[blocks.start : blocks.stop].astype(np.int64, copy=True)
    # Runtime-retired blocks stay out of the free pool with invalid
    # pages left behind — never victims (their media is dead).
    eligible = (
        ~array.block_free_mask[blocks.start : blocks.stop]
        & ~array.bad_block_mask[blocks.start : blocks.stop]
        & (invalid > 0)
    )
    if max_valid is not None:
        valid = array.block_valid_np[blocks.start : blocks.stop]
        eligible &= valid <= max_valid
    for block in exclude:
        if block is not None and blocks.start <= block < blocks.stop:
            eligible[block - blocks.start] = False
    if not eligible.any():
        return None
    candidates = np.flatnonzero(eligible)
    if policy == "greedy":
        pick = candidates[int(np.argmax(invalid[candidates]))]
    elif policy == "cost-benefit":
        valid = array.block_valid_np[blocks.start : blocks.stop].astype(np.float64)
        stamps = array.block_write_stamp_np[blocks.start : blocks.stop].astype(np.float64)
        age = (array.write_stamp + 1) - stamps
        score = age[candidates] * invalid[candidates] / (valid[candidates] + 1.0)
        pick = candidates[int(np.argmax(score))]
    elif policy == "fifo":
        stamps = array.block_write_stamp_np[blocks.start : blocks.stop]
        pick = candidates[int(np.argmin(stamps[candidates]))]
    else:  # random
        if rng is None:
            raise ValueError("random policy needs an rng")
        pick = candidates[rng.randrange(len(candidates))]
    return blocks.start + int(pick)
