"""DLOOP with multi-plane write commands (Section II.B extension).

Stock DLOOP splits a multi-page request into independent one-page
writes; their array operations already overlap across planes, but each
write issues its own program command.  This variant groups the pages of
one host request by die and issues **multi-plane program** commands for
groups landing on distinct planes of the same die — the advanced
command the paper describes but leaves unexploited.  Data transfers
still serialise on the die's shared bus, so the gain is bounded (the
paper's argument for why plane-level parallelism via striping is the
bigger lever).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, List

from repro.core.dloop import DloopFtl
from repro.flash.commands import multi_plane_program


class MultiPlaneDloopFtl(DloopFtl):
    """DLOOP issuing multi-plane programs for same-die page groups."""

    name = "dloop-mp"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.multi_plane_batches = 0
        self.multi_plane_pages = 0

    def write_pages(self, lpns: Iterable[int], start: float) -> float:
        lpns = list(lpns)
        if len(lpns) <= 1:
            return super().write_pages(lpns, start)
        completion = start
        die_groups: dict = defaultdict(list)
        for lpn in lpns:
            self.check_lpn(lpn)
            die = self.geometry.plane_to_die(self.plane_of_lpn(lpn))
            die_groups[die].append(lpn)
        for group in die_groups.values():
            # rounds of at most one page per plane (a multi-plane command
            # programs each plane once)
            rounds: List[List[int]] = []
            next_round: dict = {}
            for lpn in group:
                plane = self.plane_of_lpn(lpn)
                index = next_round.get(plane, 0)
                while len(rounds) <= index:
                    rounds.append([])
                rounds[index].append(lpn)
                next_round[plane] = index + 1
            for batch in rounds:
                if len(batch) == 1:
                    completion = max(completion, self.write_page(batch[0], start))
                else:
                    completion = max(completion, self._write_batch(batch, start))
        return completion

    def _write_batch(self, batch: List[int], start: float) -> float:
        """One multi-plane program covering distinct planes of one die."""
        t = start
        planes = [self.plane_of_lpn(lpn) for lpn in batch]
        for lpn in batch:
            t = self.tm.charge_lookup(lpn, t)
        for plane in planes:
            t = self._maybe_gc(plane, t)
        staged = []
        for lpn in batch:
            old_ppn = self.current_ppn(lpn)
            new_ppn = self._host_write_point(lpn)[1].allocate(lpn)
            staged.append((lpn, old_ppn, new_ppn))
            self.stats.host_writes += 1
        t = multi_plane_program(self.clock, planes, t)
        for lpn, old_ppn, new_ppn in staged:
            if old_ppn != -1:
                self.array.invalidate(old_ppn)
            self.page_table[lpn] = new_ppn
            t = self.tm.charge_update(lpn, t)
        for plane in planes:
            t = self._maybe_gc(plane, t)
        self.multi_plane_batches += 1
        self.multi_plane_pages += len(batch)
        if self.debug_checks:
            self.verify_integrity()
        return t
