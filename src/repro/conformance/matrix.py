"""Declarative scenario matrix: workload × FTL × geometry × faults × QD.

A :class:`ScenarioMatrix` is a plain declaration of axis values; nothing
runs until :meth:`ScenarioMatrix.expand` turns the cartesian product
into frozen :class:`Scenario` cells.  Expansion is deterministic: axes
iterate in declared order and every scenario derives its workload seed
by hashing (splitmix64 over an FNV-1a fold) of ``base_seed`` and its
own ``scenario_id`` — so adding a value to one axis never shifts the
seeds of existing scenarios, and two expansions of the same matrix are
identical cell for cell.

Fault-plan axis values are preset names (``"none"``, ``"moderate"``);
combinations pairing a fault plan with an FTL whose error paths are not
modelled (``fault_injection_supported`` is False) are skipped rather
than failed, so ``ftls="all"`` stays usable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.flash.geometry import MB, SSDGeometry
from repro.ftl.registry import available_ftls, create_ftl
from repro.seeding import fold_seed
from repro.traces.model import WorkloadSpec
from repro.traces.synthetic import make_workload

#: Fault-plan presets the fault axis can name.
FAULT_PLANS = ("none", "moderate")


@lru_cache(maxsize=None)
def ftl_supports_faults(ftl: str) -> bool:
    """Whether ``ftl`` models error paths (attach_faults would succeed).

    Probed by instantiating the FTL on a tiny throwaway geometry —
    ``fault_injection_supported`` is a class attribute, but the classes
    are only reachable through the registry's lazy factories.
    """
    probe_geometry = SSDGeometry(
        channels=2, dies_per_chip=1, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=8, page_size=512,
        extra_blocks_percent=25.0,
    )
    from repro.flash.timing import TimingParams

    ftl_obj = create_ftl(ftl, probe_geometry, TimingParams())
    return bool(ftl_obj.fault_injection_supported)


@dataclass(frozen=True)
class Scenario:
    """One fully specified conformance run (picklable, hashable)."""

    workload: str
    ftl: str
    capacity_mb: int
    fault_plan: str
    queue_depth: Optional[int]
    num_requests: int
    footprint_fraction: float
    seed: int
    channels: int = 4
    planes_per_die: int = 2
    pages_per_block: int = 16
    page_size: int = 2048
    extra_blocks_percent: float = 10.0
    precondition_fill: float = 0.9
    #: equal-weight tenants sharing the device (0 = tenancy off)
    tenants: int = 0

    @property
    def scenario_id(self) -> str:
        qd = "qd0" if self.queue_depth is None else f"qd{self.queue_depth}"
        base = (f"{self.workload}|{self.ftl}|{self.capacity_mb}mb|"
                f"{qd}|{self.fault_plan}")
        # Suffix only when the axis is on: pre-tenancy ids (and the
        # seeds folded from them) stay byte-identical.
        if self.tenants:
            return f"{base}|t{self.tenants}"
        return base

    def geometry(self) -> SSDGeometry:
        return SSDGeometry.from_capacity(
            self.capacity_mb * MB,
            page_size=self.page_size,
            pages_per_block=self.pages_per_block,
            channels=self.channels,
            dies_per_chip=1,
            planes_per_die=self.planes_per_die,
            extra_blocks_percent=self.extra_blocks_percent,
        )

    def workload_spec(self) -> WorkloadSpec:
        footprint = int(self.capacity_mb * MB * self.footprint_fraction)
        return make_workload(
            self.workload, num_requests=self.num_requests,
            footprint_bytes=footprint, seed=self.seed,
        )

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            geometry=self.geometry(),
            ftl=self.ftl,
            precondition_fill=self.precondition_fill,
        )

    def fault_config(self):
        if self.fault_plan == "none":
            return None
        if self.fault_plan == "moderate":
            from repro.faults.plan import FaultConfig

            return FaultConfig.moderate(seed=self.seed)
        raise ValueError(f"unknown fault plan {self.fault_plan!r}; "
                         f"available: {FAULT_PLANS}")

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
    geometry_kwargs: Tuple[Tuple[str, object], ...] = field(default=())
    #: optional tenant axis: equal-weight tenant counts (0 = tenancy
    #: off, the default — existing scenario ids/seeds never shift)
    tenant_counts: Tuple[int, ...] = (0,)

    def resolved_ftls(self) -> Tuple[str, ...]:
        return self.ftls if self.ftls else tuple(available_ftls())

    def expand(self) -> List[Scenario]:
        """The full product, in deterministic declared-axis order.

        Fault-plan cells for FTLs without modelled error paths are
        skipped (their ``attach_faults`` raises by design).
        """
        unknown = [p for p in self.fault_plans if p not in FAULT_PLANS]
        if unknown:
            raise ValueError(f"unknown fault plans {unknown}; available: {FAULT_PLANS}")
        overrides = dict(self.geometry_kwargs)
        scenarios: List[Scenario] = []
        for workload in self.workloads:
            for ftl in self.resolved_ftls():
                for capacity_mb in self.capacities_mb:
                    for fault_plan in self.fault_plans:
                        if fault_plan != "none" and not ftl_supports_faults(ftl):
                            continue
                        for queue_depth in self.queue_depths:
                            for tenants in self.tenant_counts:
                                scenario = Scenario(
                                    workload=workload,
                                    ftl=ftl,
                                    capacity_mb=capacity_mb,
                                    fault_plan=fault_plan,
                                    queue_depth=queue_depth,
                                    num_requests=self.num_requests,
                                    footprint_fraction=self.footprint_fraction,
                                    seed=0,
                                    tenants=tenants,
                                    **overrides,
                                )
                                scenarios.append(
                                    _with_seed(scenario, self.base_seed)
                                )
        return scenarios

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


def _with_seed(scenario: Scenario, base_seed: int) -> Scenario:
    """Stamp the id-derived seed (id itself is seed-independent)."""
    import dataclasses

    return dataclasses.replace(
        scenario, seed=fold_seed(base_seed, scenario.scenario_id)
    )
