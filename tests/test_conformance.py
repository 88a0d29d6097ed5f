"""Conformance engine: probes against hand-built event streams, the
scenario matrix, ranked reports, and the no-perturbation guarantee."""

import dataclasses
import json

import pytest

from repro.conformance.matrix import ScenarioMatrix
from repro.conformance.report import build_report, render_report, report_json
from repro.conformance.rules import (
    RULE_ORDER,
    AlignedSequentialityProbe,
    DeathTimeGroupingProbe,
    LocalityProbe,
    RequestScaleParallelismProbe,
    default_probes,
)
from repro.conformance.runner import ScenarioOutcome, run_matrix
from repro.conformance.sketches import KmvDistinctCounter, splitmix64
from repro.experiments.scenario import Scenario
from repro.ftl.registry import ftl_class
from repro.obs.tracebus import BUS, TraceBus, TraceEvent


@pytest.fixture(autouse=True)
def clean_global_bus():
    yield
    BUS.clear()


def ev(category, name, ts=0.0, dur=0.0, **args):
    return TraceEvent(category, name, ts, dur, args or None, None, "i")


def io_begin(lpn, pages, op="write", ts=0.0):
    return ev("host", "io_begin", ts, lpn=lpn, pages=pages, op=op)


def io_dispatch(lpn, pages, op="write", ts=0.0):
    return ev("host", "io_dispatch", ts, lpn=lpn, pages=pages, op=op, span_us=0.0)


def flash(name, ts, dur, plane, channel=0):
    return TraceEvent("flash", name, ts, dur,
                      {"plane": plane, "channel": channel}, f"plane:{plane}", "X")


# ---- sketches --------------------------------------------------------------


def test_splitmix64_is_fixed_function():
    # Known-answer check: the mix must never drift (report determinism
    # depends on it).
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) != splitmix64(2)
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_kmv_exact_below_k():
    sketch = KmvDistinctCounter(k=64)
    for i in range(50):
        sketch.add(i)
        sketch.add(i)  # duplicates must not count
    assert sketch.exact
    assert sketch.estimate() == 50.0


def test_kmv_estimate_above_k_within_tolerance():
    sketch = KmvDistinctCounter(k=256)
    for i in range(10_000):
        sketch.add(i)
    assert not sketch.exact
    assert sketch.estimate() == pytest.approx(10_000, rel=0.15)
    # Deterministic: a second pass over the same stream agrees exactly.
    again = KmvDistinctCounter(k=256)
    for i in range(10_000):
        again.add(i)
    assert sketch.estimate() == again.estimate()


def test_kmv_rejects_tiny_k():
    with pytest.raises(ValueError):
        KmvDistinctCounter(k=4)


# ---- rule 1: request-scale parallelism ------------------------------------


def test_parallelism_probe_scores_overlapping_planes():
    probe = RequestScaleParallelismProbe()
    # Conformant: two programs on different planes overlap in time.
    probe(io_begin(0, 4))
    probe(flash("program", 10.0, 20.0, plane=0))
    probe(flash("program", 12.0, 20.0, plane=1))
    probe(io_dispatch(0, 4))
    result = probe.result()
    assert result.exercised
    assert result.score == 1.0
    assert result.details["evaluable_requests"] == 1


def test_parallelism_probe_flags_serialized_request():
    probe = RequestScaleParallelismProbe()
    # Violating: distinct planes but strictly sequential in time.
    probe(io_begin(0, 4))
    probe(flash("program", 10.0, 20.0, plane=0))
    probe(flash("program", 30.0, 20.0, plane=1))
    probe(io_dispatch(0, 4))
    # Violating: overlap in time but a single plane.
    probe(io_begin(8, 4))
    probe(flash("program", 50.0, 20.0, plane=2))
    probe(flash("program", 55.0, 20.0, plane=2))
    probe(io_dispatch(8, 4))
    result = probe.result()
    assert result.score == 0.0
    assert result.details["evaluable_requests"] == 2


def test_parallelism_probe_ignores_single_page_requests():
    probe = RequestScaleParallelismProbe()
    probe(io_begin(0, 1))
    probe(flash("program", 0.0, 20.0, plane=0))
    probe(flash("program", 5.0, 20.0, plane=1))
    probe(io_dispatch(0, 1))
    result = probe.result()
    assert not result.exercised
    assert result.score is None


def test_parallelism_probe_overlap_detection_is_order_robust():
    probe = RequestScaleParallelismProbe()
    # A long early op on plane 0 that a later plane-1 op tucks inside.
    probe(io_begin(0, 3))
    probe(flash("read", 0.0, 100.0, plane=0))
    probe(flash("read", 40.0, 10.0, plane=1))
    probe(io_dispatch(0, 3))
    assert probe.result().score == 1.0


# ---- rule 2: locality ------------------------------------------------------


def test_locality_probe_forgives_compulsory_misses():
    probe = LocalityProbe()
    # Every miss touches a fresh LPN (cold start), then the cache hits.
    for lpn in range(100):
        probe(ev("cmt", "miss", lpn=lpn))
    for _ in range(50):
        probe(ev("cmt", "hit", lpn=1))
    result = probe.result()
    assert result.details["mode"] == "mapping-cache"
    assert result.score == 1.0


def test_locality_probe_flags_thrashing():
    probe = LocalityProbe()
    # 10 distinct LPNs missed 100x each: 990 capacity misses, 10 hits.
    for _ in range(100):
        for lpn in range(10):
            probe(ev("cmt", "miss", lpn=lpn))
    for _ in range(10):
        probe(ev("cmt", "hit", lpn=0))
    result = probe.result()
    assert result.score < 0.05


def test_locality_probe_host_fallback():
    conformant = LocalityProbe(window=64)
    for _ in range(20):
        for lpn in range(8):  # tight reuse loop inside the window
            conformant(io_begin(lpn, 1, op="read"))
    good = conformant.result()
    assert good.details["mode"] == "host-reuse"
    assert good.score == 1.0

    violating = LocalityProbe(window=64)
    for lpn in range(500):  # pure scan: no reuse at all
        violating(io_begin(lpn, 1, op="read"))
    assert violating.result().score == 0.0


def test_locality_probe_idle_not_exercised():
    result = LocalityProbe().result()
    assert not result.exercised
    assert result.score is None


# ---- rule 3: aligned sequentiality ----------------------------------------


def test_alignment_probe_rewards_sequential_aligned_writes():
    probe = AlignedSequentialityProbe(pages_per_block=16)
    lpn = 0
    for _ in range(8):  # one aligned start, then perfect continuation
        probe(io_begin(lpn, 4))
        lpn += 4
    result = probe.result()
    assert result.score == 1.0
    assert result.details["continuations"] == 7
    assert result.details["aligned_run_starts"] == 1


def test_alignment_probe_flags_unaligned_scatter():
    probe = AlignedSequentialityProbe(pages_per_block=16)
    for lpn in (3, 21, 9, 37, 55):  # all unaligned fresh runs
        probe(io_begin(lpn, 2))
    result = probe.result()
    assert result.score == 0.0
    assert result.details["unaligned_run_starts"] == 5


def test_alignment_probe_counts_straddles_and_ignores_reads():
    probe = AlignedSequentialityProbe(pages_per_block=16)
    probe(io_begin(14, 4))           # crosses the block boundary at 16
    probe(io_begin(100, 8, op="read"))  # reads never score
    result = probe.result()
    assert result.details["writes"] == 1
    assert result.details["block_straddles"] == 1


def test_alignment_probe_validates_pages_per_block():
    with pytest.raises(ValueError):
        AlignedSequentialityProbe(pages_per_block=0)


# ---- rule 4: death-time grouping ------------------------------------------


def victim(valid, invalid, plane=0, block=7, emergency=False):
    return ev("gc", "victim_selected", plane=plane, victim=block,
              valid=valid, invalid=invalid, emergency=emergency)


def test_death_time_probe_rewards_dead_victims():
    probe = DeathTimeGroupingProbe()
    for _ in range(10):
        probe(victim(valid=0, invalid=16))
    result = probe.result()
    assert result.score == 1.0
    assert result.details["dead_victims"] == 10


def test_death_time_probe_flags_live_page_scatter():
    probe = DeathTimeGroupingProbe()
    for _ in range(10):
        probe(victim(valid=12, invalid=4))
    result = probe.result()
    assert result.score == pytest.approx(0.25)
    assert result.details["worst_victim"]["live_fraction"] == pytest.approx(0.75)


def test_death_time_probe_not_exercised_without_gc():
    result = DeathTimeGroupingProbe().result()
    assert not result.exercised
    assert result.score is None


# ---- probe lifecycle -------------------------------------------------------


def test_probe_attach_detach_roundtrip():
    bus = TraceBus()
    probe = DeathTimeGroupingProbe()
    probe.attach(bus)
    assert bus.enabled
    with pytest.raises(RuntimeError):
        probe.attach(bus)
    bus.emit("gc", "victim_selected", 0.0, 0.0,
             {"plane": 0, "victim": 1, "valid": 0, "invalid": 8,
              "emergency": False}, None, "i")
    probe.detach()
    assert not bus.enabled
    assert probe.result().details["victims"] == 1


def test_default_probes_cover_rule_order(small_geometry):
    probes = default_probes(small_geometry)
    assert [p.rule for p in probes] == list(RULE_ORDER)
    results = [p.result() for p in probes]
    assert all(r.score is None and not r.exercised for r in results)
    for r in results:
        json.dumps(r.as_dict())


# ---- scenario matrix -------------------------------------------------------


def test_matrix_expansion_is_deterministic_and_unique():
    matrix = ScenarioMatrix(workloads=("financial1", "tpcc"),
                            ftls=("dloop", "dftl"),
                            queue_depths=(None, 8))
    first = matrix.expand()
    second = matrix.expand()
    assert first == second
    ids = [s.scenario_id for s in first]
    assert len(ids) == len(set(ids)) == 8
    assert all(s.seed > 0 for s in first)


def test_matrix_seed_stable_when_axis_grows():
    base = ScenarioMatrix(workloads=("financial1",), ftls=("dloop",))
    grown = dataclasses.replace(base, workloads=("financial1", "tpcc"),
                                ftls=("dloop", "fast"))
    base_seeds = {s.scenario_id: s.seed for s in base.expand()}
    grown_seeds = {s.scenario_id: s.seed for s in grown.expand()}
    for sid, seed in base_seeds.items():
        assert grown_seeds[sid] == seed  # existing cells keep their seeds


def test_matrix_skips_faults_for_unsupported_ftls():
    assert ftl_class("dloop").fault_injection_supported
    assert not ftl_class("bast").fault_injection_supported
    matrix = ScenarioMatrix(workloads=("financial1",),
                            ftls=("dloop", "bast"),
                            fault_plans=("none", "moderate"))
    scenarios = matrix.expand()
    plans = {(s.ftl, s.fault_plan) for s in scenarios}
    assert ("dloop", "moderate") in plans
    assert ("bast", "moderate") not in plans
    assert ("bast", "none") in plans
    assert matrix.expansion().not_applicable == [("bast", "moderate")]


def test_matrix_rejects_unknown_fault_plan():
    with pytest.raises(ValueError):
        ScenarioMatrix(fault_plans=("catastrophic",)).expand()


def test_scenario_builders(small_geometry):
    scenario = ScenarioMatrix(workloads=("tpcc",), ftls=("dftl",)).expand()[0]
    assert isinstance(scenario, Scenario)
    spec = scenario.workload_spec()
    assert spec.name == "tpcc"
    assert spec.seed == scenario.seed
    config = scenario.config()
    assert config.ftl == "dftl"
    assert config.geometry.capacity_bytes == pytest.approx(
        scenario.capacity_mb * 1024 * 1024, rel=0.1)
    assert scenario.fault_config() is None
    faulty = dataclasses.replace(scenario, fault_plan="moderate")
    assert faulty.fault_config().seed == scenario.seed


# ---- end-to-end: runner, report, determinism -------------------------------


SMALL = ScenarioMatrix(workloads=("financial1",), ftls=("dloop", "fast"),
                       num_requests=300, capacities_mb=(8,))


def test_run_matrix_produces_scored_outcomes():
    outcomes = run_matrix(SMALL, processes=1)
    assert [o.scenario.ftl for o in outcomes] == ["dloop", "fast"]
    for outcome in outcomes:
        assert set(outcome.rules) == set(RULE_ORDER)
        parallel = outcome.rules["request_scale_parallelism"]
        assert parallel["exercised"]
        json.dumps(outcome.as_dict())
    # DLOOP's plane striping must beat FAST's serialized log appends.
    dloop, fast = outcomes
    assert (dloop.rules["request_scale_parallelism"]["score"]
            > fast.rules["request_scale_parallelism"]["score"])


def test_report_ranked_and_byte_deterministic():
    first = build_report(run_matrix(SMALL, processes=1), SMALL)
    second = build_report(run_matrix(SMALL, processes=1), SMALL)
    assert report_json(first) == report_json(second)  # byte-identical
    assert first["ranking"][0] == "dloop"
    assert first["ftls"]["dloop"]["rank"] == 1
    rendered = render_report(first)
    assert "dloop" in rendered and "overall" in rendered


def test_report_handles_unexercised_rules():
    scenario = SMALL.expand()[0]
    outcome = ScenarioOutcome(
        scenario=scenario,
        rules={rule: {"score": None, "exercised": False, "details": {}}
               for rule in RULE_ORDER},
        metrics={},
    )
    report = build_report([outcome], SMALL)
    entry = report["ftls"]["dloop"]
    assert entry["overall"] is None
    assert report["ranking"][-1] == "dloop"  # unscored sinks to the bottom
    render_report(report)  # renders without raising


def test_probes_leave_fingerprint_bit_identical(small_geometry):
    from repro.controller.device import SimulatedSSD
    from repro.perf.fingerprint import ftl_fingerprint
    from repro.traces.stream import io_requests
    from repro.traces.stream import stream_workload
    from repro.traces.synthetic import make_workload

    spec = make_workload("financial1", num_requests=400,
                         footprint_bytes=small_geometry.capacity_bytes,
                         seed=11)

    def run(with_probes):
        ssd = SimulatedSSD(small_geometry, ftl="dloop")
        ssd.precondition(0.8)
        probes = default_probes(small_geometry) if with_probes else []
        for p in probes:
            p.attach()
        try:
            end = ssd.run_stream(io_requests(stream_workload(spec), small_geometry))
        finally:
            for p in probes:
                p.detach()
        if with_probes:
            # The run must also have given the probes real material.
            assert any(p.result().exercised for p in probes)
        return ftl_fingerprint(ssd.ftl, end)

    assert run(with_probes=True) == run(with_probes=False)


def test_run_workload_conformance_extras(small_geometry):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_workload
    from repro.traces.synthetic import make_workload

    spec = make_workload("tpcc", num_requests=300,
                         footprint_bytes=small_geometry.capacity_bytes,
                         seed=3)
    config = ExperimentConfig(geometry=small_geometry, ftl="dloop",
                              precondition_fill=0.7)
    result = run_workload(spec, config, stream=True, conformance=True)
    conformance = result.extras["conformance"]
    assert set(conformance) == set(RULE_ORDER)
    assert conformance["request_scale_parallelism"]["exercised"]
    assert BUS.subscriber_count == 0  # probes detached afterwards


def test_cli_conform_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.json"
    code = main([
        "conform", "--workloads", "financial1", "--ftls", "dloop", "dftl",
        "--requests", "300", "--capacities-mb", "8", "--processes", "1",
        "--json", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "Contract conformance" in printed
    payload = json.loads(out.read_text())
    assert payload["schema"].startswith("repro-conformance-report")
    assert set(payload["ftls"]) == {"dloop", "dftl"}
