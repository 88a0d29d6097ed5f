"""Score an expanded scenario matrix through the shared parallel runner.

Each :class:`~repro.experiments.scenario.Scenario` runs with the
standard four probes attached; its trace is generated as it replays
(the chunk-invariant stream generators), so workers never hold it.
Outcomes come back in scenario order regardless of worker completion
order — the report layer can therefore be byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.conformance.matrix import ScenarioMatrix
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_workload
from repro.experiments.scenario import Scenario


@dataclass
class ScenarioOutcome:
    """One scenario's scored rules plus headline run metrics."""

    scenario: Scenario
    #: rule name -> RuleResult.as_dict()
    rules: Dict[str, dict]
    metrics: Dict[str, object]

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario.as_dict(),
            "rules": self.rules,
            "metrics": self.metrics,
        }


def score_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Run one scenario with the contract probes attached and score it."""
    result = run_workload(
        scenario.workload_spec(),
        scenario.config(),
        queue_depth=scenario.queue_depth,
        faults=scenario.fault_config(),
        conformance=True,
        tenants=scenario.tenants,
    )
    metrics = {
        "mean_response_ms": round(result.mean_response_ms, 6),
        "p99_response_ms": round(result.p99_response_ms, 6),
        "write_amplification": round(result.write_amplification, 6),
        "sdrpp": round(result.sdrpp, 6),
        "gc_passes": result.gc_passes,
        "gc_moved_pages": result.gc_moved_pages,
        "erases": result.erases,
        "num_requests": result.num_requests,
    }
    tenants_extra = result.extras.get("tenants")
    if tenants_extra:
        metrics["tenants"] = scenario.tenants
        metrics["tenant_fairness_jain"] = round(tenants_extra["fairness_jain"], 6)
    return ScenarioOutcome(
        scenario=scenario,
        rules=result.extras.get("conformance", {}),
        metrics=metrics,
    )


def run_matrix(
    matrix: ScenarioMatrix,
    *,
    processes: Optional[int] = None,
) -> List[ScenarioOutcome]:
    """Run every scenario of ``matrix``; outcomes in expansion order."""
    return run_cells(matrix.expand(), score_scenario, processes=processes)
