"""One scenario type, one expansion, one tiny geometry.

The conformance matrix (:class:`repro.conformance.ScenarioMatrix`) and
the torture campaign (:class:`repro.torture.CampaignConfig`) are axis
declarations over the same grid: FTL × workload × geometry × fault plan
× queue depth × tenants, plus the streaming and write-buffer options.
Each declares its axes in its own order and formats its own ids;
:func:`expand` turns them into frozen :class:`Scenario` cells, and
:func:`repro.experiments.parallel.run_cells` runs those.

Expansion is deterministic: the product iterates in declared axis
order, and every scenario's seed is folded (:func:`repro.seeding.
fold_seed`) from the family's base seed and the scenario's own id — so
adding a value to one axis never shifts the seeds of existing cells.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.controller.device import SimulatedSSD
from repro.experiments.config import ExperimentConfig
from repro.faults.plan import FaultConfig
from repro.flash.geometry import SSDGeometry
from repro.ftl.registry import ftl_class
from repro.seeding import fold_seed
from repro.traces.model import WorkloadSpec
from repro.traces.synthetic import make_workload

#: Fault-plan presets a fault axis can name.
FAULT_PLANS = ("none", "moderate")


def tiny_geometry() -> SSDGeometry:
    """4 planes × 16 blocks × 8 pages of 256 bytes: big enough to
    garbage-collect, small enough that an exhaustive torture sweep is a
    few hundred replays (and the schema coverage smoke stays fast)."""
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
class Scenario:
    """One fully specified seeded run (picklable, hashable)."""

    scenario_id: str
    seed: int
    ftl: str
    workload: str
    geometry: SSDGeometry
    num_requests: int
    footprint_bytes: int
    precondition_fill: float
    fault_plan: str = "none"
    queue_depth: Optional[int] = None
    #: equal-weight tenants sharing the device (0 = tenancy off)
    tenants: int = 0
    #: replay through streamed (NCQ-window) admission
    stream: bool = False
    write_buffer_pages: Optional[int] = None
    #: the capacity axis value the geometry was sized from (reports only)
    capacity_mb: Optional[int] = None

    def workload_spec(self) -> WorkloadSpec:
        """The seeded persona over this scenario's footprint.

        The calibrated personas assume drive-scale footprints: chunk
        and alignment shrink to fit a footprint under four persona
        chunks or a page under 1 KB (the tiny geometry), and are left
        alone otherwise.
        """
        spec = make_workload(self.workload, num_requests=self.num_requests,
                             seed=self.seed)
        footprint = self.footprint_bytes
        page = self.geometry.page_size
        return dataclasses.replace(
            spec,
            footprint_bytes=footprint,
            chunk_bytes=min(spec.chunk_bytes, max(footprint // 4, page)),
            align_bytes=min(spec.align_bytes, 4 * page),
        )

    def fault_config(self) -> Optional[FaultConfig]:
        """The fault plan's :class:`FaultConfig`, seeded by the scenario
        (``None`` for plan ``"none"``)."""
        if self.fault_plan == "none":
            return None
        if self.fault_plan == "moderate":
            return FaultConfig.moderate(seed=self.seed)
        raise ValueError(f"unknown fault plan {self.fault_plan!r}; "
                         f"available: {FAULT_PLANS}")

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            geometry=self.geometry,
            ftl=self.ftl,
            precondition_fill=self.precondition_fill,
        )

    def build_ssd(self, *, sanitize: bool = False) -> SimulatedSSD:
        """A fresh device for this scenario, preconditioned.

        The OOB content generations (what the crash oracle reads) are
        armed before any flash traffic, so the preconditioned image
        carries generation 0 everywhere; stamping them never changes
        what the simulation does.
        """
        config = self.config()
        ssd = SimulatedSSD(
            config.geometry,
            config.timing,
            ftl=self.ftl,
            sanitize=sanitize,
            faults=self.fault_config(),
            write_buffer_pages=self.write_buffer_pages,
            **config.build_kwargs(),
        )
        ssd.ftl.array.enable_oob_generations()
        ssd.precondition(self.precondition_fill)
        return ssd

    def as_dict(self) -> dict:
        summary = {
            "id": self.scenario_id,
            "workload": self.workload,
            "ftl": self.ftl,
            "capacity_mb": self.capacity_mb,
            "fault_plan": self.fault_plan,
            "queue_depth": self.queue_depth,
            "num_requests": self.num_requests,
            "seed": self.seed,
        }
        if self.tenants:
            summary["tenants"] = self.tenants
        return summary


class Expansion(NamedTuple):
    """The runnable cells of an axis product, and the cells left out."""

    scenarios: List[Scenario]
    #: one ``(ftl, fault plan)`` pair per cell left out because the FTL
    #: models no error paths
    not_applicable: List[Tuple[str, str]]

    def not_applicable_note(self) -> Optional[str]:
        """One line naming the cells left out (``None`` if none were)."""
        if not self.not_applicable:
            return None
        by_plan: Dict[str, set] = {}
        for ftl, plan in self.not_applicable:
            by_plan.setdefault(plan, set()).add(ftl)
        count = len(self.not_applicable)
        which = "; ".join(
            f"fault plan {plan!r} on {', '.join(sorted(ftls))}"
            for plan, ftls in by_plan.items()
        )
        return (f"{count} cell{'s' if count != 1 else ''} not applicable: "
                f"{which} (no modelled error paths)")


def expand(
    axes: Sequence[Tuple[str, Sequence]],
    *,
    base_seed: int,
    scenario_id: Callable[[dict], str],
    fields: Callable[[dict], dict],
) -> Expansion:
    """The product of ``axes``, in their declared order.

    ``axes`` pairs :class:`Scenario` field names with their values and
    must include ``ftl``, ``workload`` and ``fault_plan``.  For each
    point, ``scenario_id`` formats the id the seed is folded from and
    ``fields`` supplies the remaining fields.  Unknown FTL, workload or
    fault-plan names raise ``ValueError`` before any cell exists; a
    fault-plan cell on an FTL without modelled error paths
    (``fault_injection_supported``) is left out and named in
    :attr:`Expansion.not_applicable`.
    """
    values = dict(axes)
    for name in values["ftl"]:
        ftl_class(name)
    for name in values["workload"]:
        make_workload(name)
    unknown = [plan for plan in values["fault_plan"] if plan not in FAULT_PLANS]
    if unknown:
        raise ValueError(f"unknown fault plans {unknown}; available: {FAULT_PLANS}")
    scenarios: List[Scenario] = []
    skipped: List[Tuple[str, str]] = []
    for combo in product(*values.values()):
        point = dict(zip(values, combo))
        ftl, plan = point["ftl"], point["fault_plan"]
        if plan != "none" and not ftl_class(ftl).fault_injection_supported:
            skipped.append((ftl, plan))
            continue
        sid = scenario_id(point)
        scenarios.append(Scenario(
            scenario_id=sid, seed=fold_seed(base_seed, sid),
            **point, **fields(point),
        ))
    return Expansion(scenarios, skipped)
