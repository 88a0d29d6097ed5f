"""The shared scenario type: report bytes, expansion, applicability.

``tests/fixtures/replay_sweep_fingerprints.json`` (section
``scenario_reports``) holds the sha256 and length of the canonical JSON
of four conformance and torture reports, recorded before the
conformance matrix and the torture campaign shared one scenario type.
Each report here is regenerated and must match.  A fifth entry,
``torture-exhaustive`` (the seven-FTL, 10-request exhaustive campaign),
takes about 16 s and is checked by CI's smoke job instead.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.conformance import ScenarioMatrix, build_report, report_json, run_matrix
from repro.experiments.scenario import Scenario, tiny_geometry
from repro.ftl.base import Ftl
from repro.obs.tracebus import BUS
from repro.seeding import fold_seed
from repro.torture import CampaignConfig, TortureCampaign

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "replay_sweep_fingerprints.json"
)


@pytest.fixture(autouse=True)
def clean_global_bus():
    yield
    BUS.clear()


def _conform(matrix: ScenarioMatrix) -> str:
    return report_json(build_report(run_matrix(matrix, processes=1), matrix))


def _torture(config: CampaignConfig) -> str:
    report = TortureCampaign(config).run()
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


#: name -> canonical report text
REPORTS = {
    # CI's conformance matrix
    "conform-ci": lambda: _conform(ScenarioMatrix(
        workloads=("financial1",), ftls=("dloop", "dftl", "fast"),
        num_requests=800, capacities_mb=(8,),
    )),
    # every optional axis: the fault skip rule, the queue-depth id and
    # the ``|tN`` tenant suffix
    "conform-axes": lambda: _conform(ScenarioMatrix(
        workloads=("financial1",), ftls=("dloop", "bast"),
        fault_plans=("none", "moderate"), queue_depths=(None, 8),
        tenant_counts=(0, 2), num_requests=300, capacities_mb=(8,),
    )),
    # CI's sampled campaign (``repro-sim torture --requests 16 --budget
    # 50 --seed 53504``)
    "torture-sampled": lambda: _torture(CampaignConfig(
        num_requests=16, budget=50, base_seed=53504,
    )),
    # streamed admission, a write buffer and a fault plan
    "torture-stream": lambda: _torture(CampaignConfig(
        ftls=("dloop", "fast"), fault_plans=("none", "moderate"),
        num_requests=8, budget=6, stream=True, queue_depth=2,
        write_buffer_pages=4,
    )),
}


def _recorded() -> dict:
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)["scenario_reports"]


def digest(text: str) -> dict:
    data = text.encode("utf-8")
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_scenario_report_bytes(name):
    assert digest(REPORTS[name]()) == _recorded()[name]


# ---- one expansion ---------------------------------------------------------


def test_both_families_expand_to_scenarios_with_id_folded_seeds():
    matrix = ScenarioMatrix(workloads=("financial1",), ftls=("dloop", "fast"),
                            queue_depths=(None, 8), tenant_counts=(0, 2))
    conform = matrix.expand()
    assert [s.scenario_id for s in conform[:4]] == [
        "financial1|dloop|16mb|qd0|none",
        "financial1|dloop|16mb|qd0|none|t2",
        "financial1|dloop|16mb|qd8|none",
        "financial1|dloop|16mb|qd8|none|t2",
    ]
    torture = TortureCampaign(CampaignConfig(
        ftls=("dftl", "dloop"), workloads=("build", "tpcc"),
    )).cells()
    assert [s.scenario_id for s in torture] == [
        "torture|dftl|build|none", "torture|dftl|tpcc|none",
        "torture|dloop|build|none", "torture|dloop|tpcc|none",
    ]
    for scenarios, base_seed in ((conform, matrix.base_seed), (torture, 0xD100)):
        for s in scenarios:
            assert isinstance(s, Scenario)
            assert s.seed == fold_seed(base_seed, s.scenario_id)
    assert all(s.geometry == tiny_geometry() for s in torture)


@pytest.mark.parametrize("expand, match", [
    (lambda: ScenarioMatrix(workloads=("nope",), ftls=("dloop",)).expand(),
     "unknown workload"),
    (lambda: ScenarioMatrix(workloads=("financial1",), ftls=("nosuch",)).expand(),
     "unknown FTL"),
    (lambda: TortureCampaign(CampaignConfig(ftls=("nosuch",))).cells(),
     "unknown FTL"),
    (lambda: TortureCampaign(CampaignConfig(workloads=("nope",))).cells(),
     "unknown workload"),
    (lambda: TortureCampaign(CampaignConfig(fault_plans=("meteor",))).cells(),
     "unknown fault plans"),
])
def test_expansion_rejects_unknown_names(expand, match):
    with pytest.raises(ValueError, match=match):
        expand()


def test_torture_run_rejects_a_bad_ftl_before_replaying(monkeypatch):
    replayed = []
    monkeypatch.setattr(TortureCampaign, "run_cell",
                        lambda self, cell: replayed.append(cell))
    campaign = TortureCampaign(CampaignConfig(ftls=("dloop", "nosuch")))
    with pytest.raises(ValueError, match="unknown FTL"):
        campaign.run()
    assert replayed == []


def test_run_matrix_rejects_a_bad_ftl_before_running(monkeypatch):
    import repro.conformance.runner as runner

    dispatched = []
    monkeypatch.setattr(runner, "run_cells",
                        lambda items, *args, **kwargs: dispatched.append(items) or [])
    matrix = ScenarioMatrix(workloads=("financial1",), ftls=("dloop", "nosuch"))
    with pytest.raises(ValueError, match="unknown FTL"):
        run_matrix(matrix, processes=2)
    assert dispatched == []


def test_campaign_queue_depth_requires_stream():
    with pytest.raises(ValueError, match="requires stream=True"):
        CampaignConfig(queue_depth=4)
    assert CampaignConfig(queue_depth=4, stream=True).queue_depth == 4


# ---- applicability: decided once, from the registry, and reported -----------


def test_fault_applicability_reads_the_registry_not_an_instance(monkeypatch):
    def no_instances(self, *args, **kwargs):
        raise AssertionError("an FTL was instantiated")

    monkeypatch.setattr(Ftl, "__init__", no_instances)
    expansion = CampaignConfig(
        ftls=("bast", "dloop", "fast", "last", "pagemap", "superblock"),
        fault_plans=("none", "moderate"),
    ).expansion()
    assert [(s.ftl, s.fault_plan) for s in expansion.scenarios] == [
        ("bast", "none"), ("dloop", "none"), ("dloop", "moderate"),
        ("fast", "none"), ("fast", "moderate"), ("last", "none"),
        ("pagemap", "none"), ("superblock", "none"),
    ]
    assert expansion.not_applicable == [
        ("bast", "moderate"), ("last", "moderate"),
        ("pagemap", "moderate"), ("superblock", "moderate"),
    ]
    assert expansion.not_applicable_note() == (
        "4 cells not applicable: fault plan 'moderate' on bast, last, "
        "pagemap, superblock (no modelled error paths)"
    )


def test_not_applicable_counts_cells_and_names_each_ftl_once():
    expansion = ScenarioMatrix(
        workloads=("financial1", "tpcc"), ftls=("bast", "dloop"),
        fault_plans=("none", "moderate"),
    ).expansion()
    assert len(expansion.not_applicable) == 2
    assert expansion.not_applicable_note() == (
        "2 cells not applicable: fault plan 'moderate' on bast "
        "(no modelled error paths)"
    )
    assert ScenarioMatrix().expansion().not_applicable_note() is None


def test_cli_torture_names_the_cells_left_out(capsys):
    from repro.cli import main

    rc = main(["torture", "--ftls", "dloop", "pagemap", "--faults", "moderate",
               "--requests", "6", "--budget", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert ("1 cell not applicable: fault plan 'moderate' on pagemap "
            "(no modelled error paths)") in out
    assert "torture|dloop|build|moderate" in out


def test_cli_conform_names_the_cells_left_out(capsys):
    from repro.cli import main

    rc = main(["conform", "--workloads", "financial1", "--ftls", "dloop", "bast",
               "--faults", "--requests", "100", "--capacities-mb", "8",
               "--processes", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert ("1 cell not applicable: fault plan 'moderate' on bast "
            "(no modelled error paths)") in out
    assert "Contract conformance by FTL (3 scenarios)" in out


def test_cli_torture_queue_depth_without_stream_is_rejected():
    from repro.cli import main

    with pytest.raises(SystemExit, match="requires stream=True"):
        main(["torture", "--queue-depth", "2"])
