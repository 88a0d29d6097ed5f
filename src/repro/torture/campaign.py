"""Torture campaigns: systematic crash-point sweeps with recovery checks.

One campaign is a grid of *cells* (FTL × workload × fault plan, plus
the campaign-wide write-buffer / NCQ-streaming options).  Per cell:

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

Everything is derived from the folded cell seed (the same FNV-1a ⊕
splitmix64 fold the conformance matrix uses), and reports contain no
wall-clock values, so two identical campaigns serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.conformance.matrix import FAULT_PLANS, ftl_supports_faults
from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.perf.fingerprint import ftl_fingerprint
from repro.seeding import fold_seed, splitmix64
from repro.sim.request import IoRequest
from repro.torture.arm import CRASH_KINDS, TortureArm, TortureCrash
from repro.torture.ledger import AckLedger
from repro.torture.oracle import VIOLATION_KINDS, check_durability
from repro.traces.stream import io_requests, stream_workload
from repro.traces.synthetic import make_workload

_MASK64 = (1 << 64) - 1

#: Second crash point for double-crash replays: the first erase during
#: recovery (recovery reclaims stranded/journal blocks by erasing, so
#: this lands mid-recovery for the FTLs that erase there; FTLs whose
#: recovery is erase-free simply recover once).
RECOVERY_CRASH_POINT = ("erase", 0)


def torture_geometry() -> SSDGeometry:
    """Tiny sweep geometry: big enough to garbage-collect, small enough
    that an exhaustive sweep is a few hundred replays."""
    return SSDGeometry(
        channels=2,
        packages_per_channel=1,
        chips_per_package=1,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=8,
        page_size=256,
        extra_blocks_percent=25.0,
    )


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
    stream: bool = False
    queue_depth: Optional[int] = None
    precondition_fill: float = 0.7
    footprint_fraction: float = 0.6

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
            "stream": self.stream,
            "queue_depth": self.queue_depth,
        }


@dataclass(frozen=True)
class TortureCell:
    """One (FTL × workload × fault plan) sweep target."""

    ftl: str
    workload: str
    fault_plan: str
    seed: int = 0

    @property
    def cell_id(self) -> str:
        return f"torture|{self.ftl}|{self.workload}|{self.fault_plan}"


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
        self.geometry = torture_geometry()

    # ---- cell plumbing ---------------------------------------------------

    def cells(self) -> List[TortureCell]:
        cfg = self.config
        unknown = [p for p in cfg.fault_plans if p not in FAULT_PLANS]
        if unknown:
            raise ValueError(
                f"unknown fault plans {unknown}; available: {FAULT_PLANS}"
            )
        out: List[TortureCell] = []
        for ftl in cfg.ftls:
            for workload in cfg.workloads:
                for plan in cfg.fault_plans:
                    if plan != "none" and not ftl_supports_faults(ftl):
                        continue
                    cell = TortureCell(ftl=ftl, workload=workload, fault_plan=plan)
                    out.append(TortureCell(
                        ftl=ftl, workload=workload, fault_plan=plan,
                        seed=fold_seed(cfg.base_seed, cell.cell_id),
                    ))
        return out

    def _base_requests(self, cell: TortureCell) -> List[IoRequest]:
        import dataclasses

        cfg = self.config
        footprint = int(self.geometry.capacity_bytes * cfg.footprint_fraction)
        # The calibrated specs assume drive-scale footprints (their
        # validation rejects sub-chunk ones): take the calibrated shape
        # at a reference scale, then shrink footprint and granularity
        # together to fit the sweep geometry.
        spec = make_workload(
            cell.workload, num_requests=cfg.num_requests,
            footprint_bytes=16 * 1024 * 1024, seed=cell.seed,
        )
        page = self.geometry.page_size
        spec = dataclasses.replace(
            spec,
            footprint_bytes=footprint,
            chunk_bytes=min(spec.chunk_bytes, max(footprint // 4, page)),
            align_bytes=min(spec.align_bytes, 4 * page),
        )
        return list(io_requests(stream_workload(spec), self.geometry))

    @staticmethod
    def _fresh_requests(base: List[IoRequest]) -> List[IoRequest]:
        # IoRequest is mutated in flight (completion, error, retries);
        # every replay gets untouched copies.
        return [
            IoRequest(r.arrival_us, r.start_lpn, r.page_count, r.op)
            for r in base
        ]

    def _fault_config(self, cell: TortureCell):
        if cell.fault_plan == "none":
            return None
        from repro.faults.plan import FaultConfig

        return FaultConfig.moderate(seed=cell.seed)

    def _make_ssd(self, cell: TortureCell, *, sanitize: bool) -> SimulatedSSD:
        cfg = self.config
        ssd = SimulatedSSD(
            self.geometry,
            ftl=cell.ftl,
            sanitize=sanitize,
            faults=self._fault_config(cell),
            write_buffer_pages=cfg.write_buffer_pages,
        )
        # Arm the OOB content generations before any flash traffic so
        # the preconditioned image carries generation 0 everywhere.
        ssd.ftl.array.enable_oob_generations()
        ssd.precondition(cfg.precondition_fill)
        return ssd

    def _run_trace(self, ssd: SimulatedSSD, requests: List[IoRequest]) -> None:
        if self.config.stream:
            ssd.run_stream(
                iter(requests),
                queue_depth=self.config.queue_depth,
                streaming_stats=False,
            )
        else:
            ssd.run(requests)
        if ssd.write_buffer is not None:
            ssd.flush()

    # ---- discovery -------------------------------------------------------

    def discover(self, cell: TortureCell, base: List[IoRequest]) -> Tuple[dict, dict]:
        """Counting-only replay: per-kind crash-point counts and the
        no-crash reference fingerprint."""
        ssd = self._make_ssd(cell, sanitize=False)
        arm = TortureArm().attach(armed=None)
        try:
            self._run_trace(ssd, self._fresh_requests(base))
            counts = dict(arm.counts)
        finally:
            arm.detach()
        ssd.ftl.verify_integrity()
        reference = ftl_fingerprint(ssd.ftl, ssd.engine.now)
        return counts, reference

    # ---- one replay ------------------------------------------------------

    def run_point(
        self,
        cell: TortureCell,
        point: Tuple[str, int],
        base: Optional[List[IoRequest]] = None,
        *,
        double: bool = False,
    ) -> PointResult:
        """Crash at ``point``, recover, judge, finish the trace."""
        if base is None:
            base = self._base_requests(cell)
        ssd = self._make_ssd(cell, sanitize=True)
        ftl = ssd.ftl
        ledger = AckLedger(ftl)
        ledger.baseline()
        ledger.attach_bus()
        ssd.controller.ledger = ledger
        done: set = set()
        ssd.controller.on_complete.append(ledger.completed)
        ssd.controller.on_complete.append(lambda r: done.add(id(r)))
        requests = self._fresh_requests(base)
        stream_iter = iter(requests) if self.config.stream else None
        # Subscribed last: the sanitizer's shadow model and the ledger
        # must both observe the triggering event before the arm raises.
        arm = TortureArm().attach(armed=point)
        result = PointResult(kind=point[0], index=point[1], fired=False,
                             double=double)
        try:
            try:
                if stream_iter is not None:
                    ssd.run_stream(
                        stream_iter,
                        queue_depth=self.config.queue_depth,
                        streaming_stats=False,
                    )
                else:
                    ssd.run(requests)
                if ssd.write_buffer is not None:
                    ssd.flush()
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
                # Finish the unacknowledged remainder of the trace: the
                # recovered device must still be a working drive.
                if stream_iter is not None:
                    remaining = list(stream_iter)
                else:
                    remaining = [r for r in requests if id(r) not in done]
                now = ssd.engine.now
                ssd.run([
                    IoRequest(max(r.arrival_us, now), r.start_lpn,
                              r.page_count, r.op)
                    for r in remaining
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

    def run_cell(self, cell: TortureCell) -> dict:
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
            "cell": cell.cell_id,
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
        cells = [self.run_cell(cell) for cell in self.cells()]
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
        self, cell: TortureCell, point: Tuple[str, int], *, double: bool = False
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
        if cfg.stream:
            parts.append("--stream")
        if cfg.queue_depth is not None:
            parts.append(f"--queue-depth {cfg.queue_depth}")
        return " ".join(parts)
