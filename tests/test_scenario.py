"""The shared scenario type: report bytes, expansion, applicability.

``tests/fixtures/replay_sweep_fingerprints.json`` (section
``scenario_reports``) holds the sha256 and length of the canonical JSON
of two torture reports, recorded before the torture campaign shared one
scenario type with the paper grids, and of the nine paper-grid drivers' cells (Figs. 8-10 and ablations
A1-A4, A6, A9 on financial1 at 1/256 scale), recorded before the
figures became scenario expansions.  Each report here is regenerated
and must match.  One more entry, ``torture-exhaustive`` (the six-FTL,
10-request exhaustive campaign), takes about 30 s and is checked by
CI's smoke job instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.experiments import figures
from repro.experiments.scenario import Scenario, expand, tiny_geometry
from repro.ftl.base import Ftl
from repro.obs.tracebus import BUS
from repro.seeding import fold_seed, splitmix64
from repro.torture import CampaignConfig, TortureCampaign
from repro.traces.synthetic import PAPER_TRACE_NAMES, make_workload

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "replay_sweep_fingerprints.json"
)


@pytest.fixture(autouse=True)
def clean_global_bus():
    yield
    BUS.clear()


def _torture(config: CampaignConfig) -> str:
    report = TortureCampaign(config).run()
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


#: the paper grids, by declaration name
GRIDS = ("F8", "F9", "F10", "A1", "A2", "A3", "A4", "A6", "A9")


def _grid(name: str) -> str:
    """A paper grid's cells on financial1, 1/256 scale (the 2 GB paper
    point is 8 MB), 300 requests."""
    grid = dataclasses.replace(getattr(figures, name), workloads=("financial1",),
                               scale=1.0 / 256.0, num_requests=300)
    results = grid.run()
    # every cell replays through the unbounded admission window
    assert all(r.extras["stream"]["queue_depth"] is None for r in results)
    cells = [
        {
            "trace": r.trace,
            "ftl": r.ftl,
            "extras": {k: v for k, v in r.extras.items() if k != "stream"},
            "mean_response_ms": r.mean_response_ms,
            "sdrpp": r.sdrpp,
            "gc_moved_pages": r.gc_moved_pages,
            "erases": r.erases,
            "write_amplification": r.write_amplification,
        }
        for r in results
    ]
    return json.dumps(cells, sort_keys=True, separators=(",", ":"))


#: name -> canonical report text
REPORTS = {
    # CI's sampled campaign (``repro-sim torture --requests 16 --budget
    # 50 --seed 53504``)
    "torture-sampled": lambda: _torture(CampaignConfig(
        num_requests=16, budget=50, base_seed=53504,
    )),
    # a bounded admission window, a write buffer and a fault plan
    "torture-stream": lambda: _torture(CampaignConfig(
        ftls=("dloop", "fast"), fault_plans=("none", "moderate"),
        num_requests=8, budget=6, queue_depth=2,
        write_buffer_pages=4,
    )),
    **{f"figure-{name}": (lambda name=name: _grid(name)) for name in GRIDS},
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


def test_torture_cells_are_scenarios_with_id_folded_seeds():
    torture = TortureCampaign(CampaignConfig(
        ftls=("dftl", "dloop"), workloads=("build", "tpcc"),
    )).cells()
    assert [s.scenario_id for s in torture] == [
        "torture|dftl|build|none", "torture|dftl|tpcc|none",
        "torture|dloop|build|none", "torture|dloop|tpcc|none",
    ]
    for s in torture:
        assert isinstance(s, Scenario)
        assert s.seed == fold_seed(0xD100, s.scenario_id)
        assert s.ftl_kwargs == ()
    # the seeds recorded reports replay
    assert [s.seed for s in torture[:2]] == [1187358127, 239559356]
    assert all(s.geometry == tiny_geometry() for s in torture)


def test_splitmix64_is_fixed_function():
    # Known-answer check: every folded seed, and so every recorded
    # report, depends on the mix never drifting.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) != splitmix64(2)
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_fields_can_pin_the_seed_and_read_axes_that_are_not_fields():
    base = dict(geometry=tiny_geometry(), num_requests=10, footprint_bytes=4096,
                precondition_fill=0.5)
    scenarios = expand(
        (("workload", ("tpcc",)), ("knob", (1, 2)), ("ftl", ("dloop",)),
         ("fault_plan", ("none",))),
        base_seed=5,
        scenario_id=lambda p: f"{p['knob']}",
        fields=lambda p: dict(base, seed=100 + p["knob"]),
    ).scenarios
    assert [(s.scenario_id, s.seed) for s in scenarios] == [("1", 101), ("2", 102)]
    folded = expand(
        (("workload", ("tpcc",)), ("ftl", ("dloop",)), ("fault_plan", ("none",))),
        base_seed=5, scenario_id=lambda p: "x", fields=lambda p: base,
    ).scenarios
    assert folded[0].seed == fold_seed(5, "x")


def _expand_one(ftl: str, workload: str):
    return expand((("ftl", (ftl,)), ("workload", (workload,)), ("fault_plan", ("none",))),
                  base_seed=0, scenario_id=str, fields=dict)


@pytest.mark.parametrize("expand, match", [
    (lambda: _expand_one("dloop", "nope"), "unknown workload"),
    (lambda: _expand_one("nosuch", "financial1"), "unknown FTL"),
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


# ---- applicability: decided once, from the registry, and reported -----------


def test_fault_applicability_reads_the_registry_not_an_instance(monkeypatch):
    def no_instances(self, *args, **kwargs):
        raise AssertionError("an FTL was instantiated")

    monkeypatch.setattr(Ftl, "__init__", no_instances)
    expansion = CampaignConfig(
        ftls=("bast", "dloop", "fast", "last", "pagemap"),
        fault_plans=("none", "moderate"),
    ).expansion()
    assert [(s.ftl, s.fault_plan) for s in expansion.scenarios] == [
        ("bast", "none"), ("dloop", "none"), ("dloop", "moderate"),
        ("fast", "none"), ("fast", "moderate"), ("last", "none"),
        ("pagemap", "none"),
    ]
    assert expansion.not_applicable == [
        ("bast", "moderate"), ("last", "moderate"), ("pagemap", "moderate"),
    ]
    assert expansion.not_applicable_note() == (
        "3 cells not applicable: fault plan 'moderate' on bast, last, "
        "pagemap (no modelled error paths)"
    )


def test_not_applicable_counts_cells_and_names_each_ftl_once():
    expansion = CampaignConfig(
        workloads=("financial1", "tpcc"), ftls=("bast", "dloop"),
        fault_plans=("none", "moderate"),
    ).expansion()
    assert len(expansion.not_applicable) == 2
    assert expansion.not_applicable_note() == (
        "2 cells not applicable: fault plan 'moderate' on bast "
        "(no modelled error paths)"
    )
    assert CampaignConfig().expansion().not_applicable_note() is None


def test_cli_torture_names_the_cells_left_out(capsys):
    from repro.cli import main

    rc = main(["torture", "--ftls", "dloop", "pagemap", "--faults", "moderate",
               "--requests", "6", "--budget", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert ("1 cell not applicable: fault plan 'moderate' on pagemap "
            "(no modelled error paths)") in out
    assert "torture|dloop|build|moderate" in out


# ---- the paper grids ---------------------------------------------------------


@pytest.mark.parametrize("scale", (1 / 256, 1 / 32, 1 / 16, 1 / 8))
@pytest.mark.parametrize("trace", PAPER_TRACE_NAMES)
@pytest.mark.parametrize("name", GRIDS)
def test_grid_cells_replay_the_persona_spec(name, trace, scale):
    grid = dataclasses.replace(getattr(figures, name), workloads=(trace,),
                               scale=scale, num_requests=500)
    for s in grid.scenarios():
        assert s.seed == make_workload(trace).seed
        assert s.workload_spec() == make_workload(
            trace, 500, footprint_bytes=s.footprint_bytes)


def test_grid_ftl_kwargs_reach_the_built_ftl():
    grid = dataclasses.replace(figures.A1, workloads=("financial1",), scale=1 / 256)
    scenarios = grid.scenarios()
    assert [s.ftl_kwargs for s in scenarios] == [
        (("use_copyback", True),), (("use_copyback", False),)]
    assert [s.build_ssd().ftl.use_copyback for s in scenarios] == [True, False]
