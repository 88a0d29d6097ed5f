"""Torture campaigns: systematic crash-point sweeps with recovery checks.

One campaign is a grid of cells — FTL × workload × fault plan, plus
the campaign-wide write-buffer and queue-depth options — each one a
:class:`~repro.experiments.scenario.Scenario` on the tiny geometry,
expanded by the same code as the paper grids.  Per cell:

1. **Discovery** — replay the cell's trace once with a counting-only
   :class:`~repro.torture.arm.TortureArm` attached; the per-kind event
   counts enumerate every candidate crash point, and the final
   fingerprint becomes the cell's no-crash reference.
2. **Selection** — exhaustive for small traces; above ``budget``
   points, a seeded splitmix64 partial shuffle picks a deterministic
   sample (the dropped remainder is reported, never silent).
3. **Replay** — for each point: fresh device, precondition, arm, run
   until :class:`~repro.torture.arm.TortureCrash` fires, power-fail and
   recover (optionally crashing *again* mid-recovery), interrogate the
   durability oracle, then finish the unacknowledged remainder of the
   trace and verify integrity + fingerprint validity.

Everything is derived from the folded cell seed, and reports contain no
wall-clock values, so two identical campaigns serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.controller.device import SimulatedSSD
from repro.experiments.parallel import run_cells
from repro.experiments.scenario import Expansion, Scenario, expand, tiny_geometry
from repro.perf.fingerprint import ftl_fingerprint
from repro.seeding import splitmix64
from repro.sim.request import IoRequest
from repro.torture.arm import CRASH_KINDS, TortureArm, TortureCrash
from repro.torture.ledger import AckLedger
from repro.torture.oracle import VIOLATION_KINDS, check_durability
from repro.traces.stream import io_requests, stream_workload

_MASK64 = (1 << 64) - 1

#: Second crash point for double-crash replays: the first erase during
#: recovery (recovery reclaims stranded/journal blocks by erasing, so
#: this lands mid-recovery for the FTLs that erase there; FTLs whose
#: recovery is erase-free simply recover once).
RECOVERY_CRASH_POINT = ("erase", 0)


@dataclass(frozen=True)
class CampaignConfig:
    """Axes and options of one torture campaign."""

    ftls: Tuple[str, ...] = ("dloop", "dftl", "fast", "pagemap")
    workloads: Tuple[str, ...] = ("build",)
    fault_plans: Tuple[str, ...] = ("none",)
    num_requests: int = 24
    base_seed: int = 0xD100
    #: max replayed points per cell; None = exhaustive
    budget: Optional[int] = None
    #: also re-crash each point during recovery (double crash)
    double: bool = False
    write_buffer_pages: Optional[int] = None
    #: bound on the admitted-but-uncompleted requests (None = unbounded)
    queue_depth: Optional[int] = None
    precondition_fill: float = 0.7
    footprint_fraction: float = 0.6

    def expansion(self) -> Expansion:
        """The cells in FTL, workload, fault plan order, plus the cells
        left out."""
        geometry = tiny_geometry()
        fields = dict(
            geometry=geometry,
            num_requests=self.num_requests,
            footprint_bytes=int(geometry.capacity_bytes * self.footprint_fraction),
            precondition_fill=self.precondition_fill,
            queue_depth=self.queue_depth,
            write_buffer_pages=self.write_buffer_pages,
        )
        return expand(
            (("ftl", self.ftls), ("workload", self.workloads),
             ("fault_plan", self.fault_plans)),
            base_seed=self.base_seed,
            scenario_id=lambda p: f"torture|{p['ftl']}|{p['workload']}|{p['fault_plan']}",
            fields=lambda point: fields,
        )

    def as_dict(self) -> dict:
        return {
            "ftls": list(self.ftls),
            "workloads": list(self.workloads),
            "fault_plans": list(self.fault_plans),
            "num_requests": self.num_requests,
            "base_seed": self.base_seed,
            "budget": self.budget,
            "double": self.double,
            "write_buffer_pages": self.write_buffer_pages,
            "queue_depth": self.queue_depth,
        }


@dataclass
class PointResult:
    """Outcome of one crash replay."""

    kind: str
    index: int
    fired: bool
    double: bool
    violations: list = field(default_factory=list)
    excused: int = 0
    recovered_mappings: int = 0

    def as_dict(self) -> dict:
        return {
            "point": f"{self.kind}:{self.index}",
            "fired": self.fired,
            "double": self.double,
            "violations": [v.as_dict() for v in self.violations],
            "excused": self.excused,
            "recovered_mappings": self.recovered_mappings,
        }


def sample_points(
    points: Sequence[Tuple[str, int]], budget: int, seed: int
) -> List[Tuple[str, int]]:
    """Deterministic sample of ``budget`` points (splitmix64 partial
    Fisher–Yates); returns all of them when they fit the budget."""
    pts = list(points)
    if len(pts) <= budget:
        return pts
    state = (seed ^ 0x1CEB00DA) & _MASK64
    for i in range(budget):
        state = splitmix64(state)
        j = i + state % (len(pts) - i)
        pts[i], pts[j] = pts[j], pts[i]
    return pts[:budget]


class TortureCampaign:
    """Run the sweep; :meth:`run` returns the canonical report dict."""

    def __init__(self, config: Optional[CampaignConfig] = None):
        self.config = config if config is not None else CampaignConfig()

    # ---- cell plumbing ---------------------------------------------------

    def cells(self) -> List[Scenario]:
        return self.config.expansion().scenarios

    @staticmethod
    def _base_requests(cell: Scenario) -> List[IoRequest]:
        return list(io_requests(stream_workload(cell.workload_spec()), cell.geometry))

    @staticmethod
    def _fresh_requests(base: List[IoRequest]) -> List[IoRequest]:
        # IoRequest is mutated in flight (completion, error, retries);
        # every replay gets untouched copies.
        return [
            IoRequest(r.arrival_us, r.start_lpn, r.page_count, r.op)
            for r in base
        ]

    @staticmethod
    def _run_trace(cell: Scenario, ssd: SimulatedSSD, requests: List[IoRequest]) -> None:
        ssd.run_stream(iter(requests), queue_depth=cell.queue_depth)
        if ssd.write_buffer is not None:
            ssd.flush()

    # ---- discovery -------------------------------------------------------

    def discover(self, cell: Scenario, base: List[IoRequest]) -> Tuple[dict, dict]:
        """Counting-only replay: per-kind crash-point counts and the
        no-crash reference fingerprint."""
        ssd = cell.build_ssd()
        arm = TortureArm().attach(armed=None)
        try:
            self._run_trace(cell, ssd, self._fresh_requests(base))
            counts = dict(arm.counts)
        finally:
            arm.detach()
        ssd.ftl.verify_integrity()
        reference = ftl_fingerprint(ssd.ftl, ssd.engine.now)
        return counts, reference

    # ---- one replay ------------------------------------------------------

    def run_point(
        self,
        cell: Scenario,
        point: Tuple[str, int],
        base: Optional[List[IoRequest]] = None,
        *,
        double: bool = False,
    ) -> PointResult:
        """Crash at ``point``, recover, judge, finish the trace."""
        if base is None:
            base = self._base_requests(cell)
        ssd = cell.build_ssd(sanitize=True)
        ftl = ssd.ftl
        ledger = AckLedger(ftl)
        ledger.baseline()
        ledger.attach_bus()
        ssd.controller.ledger = ledger
        done: set = set()
        ssd.controller.on_complete.append(ledger.completed)
        ssd.controller.on_complete.append(lambda r: done.add(id(r)))
        requests = self._fresh_requests(base)
        # Subscribed last: the sanitizer's shadow model and the ledger
        # must both observe the triggering event before the arm raises.
        arm = TortureArm().attach(armed=point)
        result = PointResult(kind=point[0], index=point[1], fired=False,
                             double=double)
        try:
            try:
                self._run_trace(cell, ssd, requests)
            except TortureCrash:
                result.fired = True
                buffered = (
                    list(ssd.write_buffer.buffered_lpns())
                    if ssd.write_buffer is not None else []
                )
                ledger.drop_inflight()
                if double:
                    arm.rearm(RECOVERY_CRASH_POINT)
                    try:
                        summary = ssd.crash()
                    except TortureCrash:
                        # power failed again mid-recovery; recover from
                        # whatever state the interrupted pass left
                        summary = ssd.crash()
                    arm.disarm()
                else:
                    summary = ssd.crash()
                result.recovered_mappings = summary["recovered_mappings"]
                verdict = check_durability(ftl, ledger, buffered)
                result.violations = verdict.violations
                result.excused = len(verdict.excused)
                # Finish every request not completed before the crash:
                # the recovered device must still be a working drive.
                now = ssd.engine.now
                ssd.run([
                    IoRequest(max(r.arrival_us, now), r.start_lpn,
                              r.page_count, r.op)
                    for r in requests if id(r) not in done
                ])
                if ssd.write_buffer is not None:
                    ssd.flush()
            ftl.verify_integrity()
            ftl_fingerprint(ftl, ssd.engine.now)
        finally:
            arm.detach()
            ledger.detach()
            ssd.controller.ledger = None
            if ssd.sanitizer is not None:
                ssd.sanitizer.detach()
        return result

    # ---- the sweep -------------------------------------------------------

    def run_cell(self, cell: Scenario) -> dict:
        cfg = self.config
        base = self._base_requests(cell)
        counts, reference = self.discover(cell, base)
        candidates = [
            (kind, index)
            for kind in CRASH_KINDS
            for index in range(counts[kind])
        ]
        if cfg.budget is not None:
            chosen = sample_points(candidates, cfg.budget, cell.seed)
        else:
            chosen = list(candidates)
        results = [self.run_point(cell, point, base) for point in chosen]
        if cfg.double:
            results += [
                self.run_point(cell, point, base, double=True)
                for point in chosen
            ]
        violations = [
            (r, v) for r in results for v in r.violations
        ]
        first_failing = None
        for r in results:
            if r.violations:
                first_failing = {
                    "point": f"{r.kind}:{r.index}",
                    "double": r.double,
                    "repro": self.repro_command(cell, (r.kind, r.index),
                                                double=r.double),
                }
                break
        return {
            "cell": cell.scenario_id,
            "ftl": cell.ftl,
            "workload": cell.workload,
            "fault_plan": cell.fault_plan,
            "seed": cell.seed,
            "counts": counts,
            "points_total": len(candidates),
            "points_run": len(chosen),
            "points_dropped": len(candidates) - len(chosen),
            "sampled": len(chosen) < len(candidates),
            "unreached": sum(1 for r in results if not r.fired),
            "violations_total": len(violations),
            "excused_total": sum(r.excused for r in results),
            "first_failing": first_failing,
            "reference_fingerprint": reference,
            "results": [r.as_dict() for r in results if r.violations],
        }

    def run(self) -> dict:
        cells = run_cells(self.cells(), self.run_cell, processes=1)
        ranking = sorted(
            (c for c in cells if c["violations_total"]),
            key=lambda c: (
                min(
                    VIOLATION_KINDS.index(v["kind"])
                    for r in c["results"] for v in r["violations"]
                ),
                -c["violations_total"],
                c["cell"],
            ),
        )
        return {
            "config": self.config.as_dict(),
            "cells": cells,
            "total_points_run": sum(c["points_run"] for c in cells),
            "total_violations": sum(c["violations_total"] for c in cells),
            "ranking": [c["cell"] for c in ranking],
        }

    # ---- repro helper ----------------------------------------------------

    def repro_command(
        self, cell: Scenario, point: Tuple[str, int], *, double: bool = False
    ) -> str:
        """Minimal command line reproducing one crash replay."""
        cfg = self.config
        parts = [
            "repro-sim torture",
            f"--ftls {cell.ftl}",
            f"--workloads {cell.workload}",
            f"--requests {cfg.num_requests}",
            f"--seed {cfg.base_seed}",
            f"--point {point[0]}:{point[1]}",
        ]
        if cell.fault_plan != "none":
            parts.append(f"--faults {cell.fault_plan}")
        if double:
            parts.append("--double")
        if cfg.write_buffer_pages is not None:
            parts.append(f"--write-buffer {cfg.write_buffer_pages}")
        if cfg.queue_depth is not None:
            parts.append(f"--queue-depth {cfg.queue_depth}")
        return " ".join(parts)
