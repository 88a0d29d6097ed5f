"""Declarative scenario matrix: workload × FTL × capacity × faults × QD × tenants.

A :class:`ScenarioMatrix` is a plain declaration of axis values; nothing
runs until :meth:`ScenarioMatrix.expand` turns the product into frozen
:class:`~repro.experiments.scenario.Scenario` cells through the shared
expansion (declared axis order, seeds folded from ``base_seed`` and the
scenario id, unknown names rejected up front).  Fault-plan cells on FTLs
whose error paths are not modelled are left out and named by
:meth:`ScenarioMatrix.expansion`, so ``ftls="all"`` stays usable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.experiments.scenario import Expansion, Scenario, expand
from repro.flash.geometry import MB, SSDGeometry
from repro.ftl.registry import available_ftls

#: Geometry of every capacity point (``geometry_kwargs`` overrides).
_GEOMETRY = dict(page_size=2048, pages_per_block=16, channels=4,
                 dies_per_chip=1, planes_per_die=2, extra_blocks_percent=10.0)


def _scenario_id(point: dict) -> str:
    scenario_id = (f"{point['workload']}|{point['ftl']}|{point['capacity_mb']}mb|"
                   f"qd{point['queue_depth'] or 0}|{point['fault_plan']}")
    # Suffix only when the axis is on: pre-tenancy ids (and the seeds
    # folded from them) stay byte-identical.
    if point["tenants"]:
        return f"{scenario_id}|t{point['tenants']}"
    return scenario_id


@dataclass(frozen=True)
class ScenarioMatrix:
    """Declarative axes; :meth:`expand` yields the runnable product."""

    workloads: Tuple[str, ...] = ("financial1", "tpcc", "build")
    ftls: Tuple[str, ...] = ()  # empty = every registered FTL
    capacities_mb: Tuple[int, ...] = (16,)
    fault_plans: Tuple[str, ...] = ("none",)
    queue_depths: Tuple[Optional[int], ...] = (None,)
    #: Sized so steady-state GC actually runs on the default 16 MB
    #: geometry at 90% pre-fill — the death-time rule needs victims.
    num_requests: int = 4000
    footprint_fraction: float = 0.6
    base_seed: int = 0xC0F0
    #: ``SSDGeometry.from_capacity`` overrides, as (name, value) pairs
    geometry_kwargs: Tuple[Tuple[str, object], ...] = field(default=())
    #: optional tenant axis: equal-weight tenant counts (0 = tenancy
    #: off, the default — existing scenario ids/seeds never shift)
    tenant_counts: Tuple[int, ...] = (0,)

    def resolved_ftls(self) -> Tuple[str, ...]:
        return self.ftls if self.ftls else tuple(available_ftls())

    def expansion(self) -> Expansion:
        """The product in workload, FTL, capacity, fault plan, queue
        depth, tenants order, plus the cells left out."""
        geometry = {**_GEOMETRY, **dict(self.geometry_kwargs)}

        def fields(point: dict) -> dict:
            capacity = point["capacity_mb"] * MB
            return dict(
                geometry=SSDGeometry.from_capacity(capacity, **geometry),
                num_requests=self.num_requests,
                footprint_bytes=int(capacity * self.footprint_fraction),
                precondition_fill=0.9,
            )

        return expand(
            (
                ("workload", self.workloads),
                ("ftl", self.resolved_ftls()),
                ("capacity_mb", self.capacities_mb),
                ("fault_plan", self.fault_plans),
                ("queue_depth", self.queue_depths),
                ("tenants", self.tenant_counts),
            ),
            base_seed=self.base_seed,
            scenario_id=_scenario_id,
            fields=fields,
        )

    def expand(self) -> List[Scenario]:
        """The runnable scenarios, in deterministic declared-axis order."""
        return self.expansion().scenarios

    def describe(self) -> dict:
        """Axis summary for report headers (JSON-safe)."""
        return {
            "workloads": list(self.workloads),
            "ftls": list(self.resolved_ftls()),
            "capacities_mb": list(self.capacities_mb),
            "fault_plans": list(self.fault_plans),
            "queue_depths": list(self.queue_depths),
            "num_requests": self.num_requests,
            "footprint_fraction": self.footprint_fraction,
            "base_seed": self.base_seed,
            "tenant_counts": list(self.tenant_counts),
        }
