"""Unwritten-contract conformance engine.

Streaming TraceBus probes score each FTL against the SSD performance
contract (request-scale parallelism, locality, aligned sequentiality,
grouping by death time); a declarative scenario matrix expands into
deterministic seeded :class:`~repro.experiments.scenario.Scenario`
cells (the type torture campaigns use too); a ranked per-FTL report
explains where each FTL honors or violates the contract.  See
``docs/conformance.md``.
"""

from repro.conformance.matrix import ScenarioMatrix
from repro.conformance.report import build_report, render_report, report_json
from repro.conformance.rules import (
    RULE_ORDER,
    AlignedSequentialityProbe,
    ContractProbe,
    DeathTimeGroupingProbe,
    LocalityProbe,
    RequestScaleParallelismProbe,
    RuleResult,
    default_probes,
)
from repro.conformance.runner import ScenarioOutcome, run_matrix
from repro.conformance.sketches import KmvDistinctCounter, splitmix64

__all__ = [
    "RULE_ORDER",
    "AlignedSequentialityProbe",
    "ContractProbe",
    "DeathTimeGroupingProbe",
    "KmvDistinctCounter",
    "LocalityProbe",
    "RequestScaleParallelismProbe",
    "RuleResult",
    "ScenarioMatrix",
    "ScenarioOutcome",
    "build_report",
    "default_probes",
    "render_report",
    "report_json",
    "run_matrix",
    "splitmix64",
]
