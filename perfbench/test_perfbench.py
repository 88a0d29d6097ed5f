"""Smoke test of the benchmark harness.

Run explicitly from the repo root with ``pytest perfbench/``; it is not
part of tier-1 (``testpaths`` is ``tests/``).  It drives the real
harness — child interpreters, tracer, overhead ladder — at 1/20 of the
request counts with two rounds, and checks the output against what
``BENCHMARK.json`` promises.
"""

from __future__ import annotations

import re

import pytest

from perfbench.harness import MIN_ROUNDS, SPEC, measure

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results():
    # a zero budget leaves exactly the minimum number of rounds
    (one_pass,) = measure(WORKLOADS, seed=0, seconds=0.0, traced=True, scale=0.05)
    return one_pass


def test_names_are_well_formed_and_setup_s_is_declared():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(results, workload):
    result = results[workload]
    assert result["correct"], result["problems"]
    assert result["reps"] == MIN_ROUNDS
    assert result["failed"] == 0 and result["attempted"] >= 1
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"] for m in SPEC[section]}
        assert declared <= set(result[section]), declared - set(result[section])
    # end-to-end metrics are never 0 (the driver compares them as ratios)
    assert all(result["end_to_end"][m["name"]] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_the_traced_wall_time(results, workload):
    assert 0.98 <= results[workload]["per_layer"]["trace.coverage"] <= 1.02


def test_extra_repetitions_report_on_their_workload_only(results):
    for workload in WORKLOADS:
        layers = results[workload]["per_layer"]
        assert (layers["overhead.base_us_per_page"] > 0) == (workload == "build_dloop_observed")
        assert (layers["dftl_gc.host_us_per_page"] > 0) == (workload == "build_dftl")
