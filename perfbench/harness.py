"""Run repetitions in child interpreters and reduce them to metrics.

One *run* measures one or more workloads for a time budget: rounds of
repetitions, round-robin across the workloads (so a slow phase of a
shared machine is spread over all of them), each repetition a fresh
``python -m perfbench.rep`` process, strictly one at a time.

An untraced run is rounds of plain repetitions and yields the
end-to-end metrics.  A traced run adds, per round, one traced
repetition (and the workload's ``EXTRAS``: the overhead-ladder rungs,
DFTL's trace past its GC cliff) and yields the per-layer metrics; its
plain repetitions are the base of ``trace.overhead_ratio`` and the
``host.*`` metrics.  End-to-end metrics never come from a traced
repetition.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Sequence

from perfbench.tracer import LAYERS
from perfbench.workloads import EXTRAS, LADDER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))

#: every workload gets at least this many rounds, whatever the budget
MIN_ROUNDS = 2
#: the contract gives a run 180 s; a repetition that hangs is killed
REP_TIMEOUT_S = 150
SIM_METRICS = ("sim_mean_response_ms", "sim_write_amplification")


def _spawn(name: str, seed: int, scale: float, variant: str, traced: bool) -> dict:
    """One repetition in a fresh interpreter; never raises."""
    spans_path = None
    if traced:
        RESULTS.mkdir(exist_ok=True)
        spans_path = str(RESULTS / f"spans-{name}.json")
    args = {"name": name, "seed": seed, "scale": scale, "variant": variant,
            "traced": traced, "spans_path": spans_path}
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.rep", json.dumps(args)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            result = json.loads(lines[-1])
        else:
            result = {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    except subprocess.TimeoutExpired:
        result = {"error": f"repetition exceeded {REP_TIMEOUT_S} s and was killed"}
    except json.JSONDecodeError as exc:
        result = {"error": f"unreadable repetition output: {exc}"}
    result["child_s"] = perf_counter() - start
    return result


def measure(names: Sequence[str], seed: int, seconds: float, traced: bool,
            scale: float = 1.0, progress=None, passes: int = 1) -> List[Dict[str, dict]]:
    """Measure ``names`` for ``seconds`` each; see the module docstring.

    ``passes`` independent measurements are taken side by side — in every
    round each workload's repetitions run once per pass, and the pass
    that goes first alternates — so that they see the same machine.
    Returns one ``{workload: result}`` per pass.
    """
    reps: List[Dict[str, Dict[str, List[dict]]]] = [
        {name: {} for name in names} for _ in range(passes)
    ]
    spent = {name: 0.0 for name in names}
    round_no = 0
    while True:
        due = [n for n in names if round_no < MIN_ROUNDS or spent[n] < seconds * passes]
        if not due:
            break
        order = list(range(passes))
        if round_no % 2:
            order.reverse()
        for name in due:
            plan = [("plain", name, "", False)]
            if traced:
                plan.append(("traced", name, "", True))
                plan.extend((kind, workload, rung, False)
                            for kind, (workload, rung) in EXTRAS.get(name, {}).items())
            for kind, workload, rung, with_tracer in plan:
                for index in order:
                    rep = _spawn(workload, seed, scale, rung, with_tracer)
                    rep["workload"] = workload
                    reps[index][name].setdefault(kind, []).append(rep)
                    spent[name] += rep["child_s"]
                    if progress is not None:
                        progress(name, kind, rep)
        round_no += 1
    return [{name: _reduce(one[name], scale) for name in names} for one in reps]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _us_per_page(rep: dict) -> float:
    return _ratio(rep["wall_s"], rep["pages"]) * 1e6


def _reduce(reps: Dict[str, List[dict]], scale: float) -> dict:
    """Correctness verdict, attempted/failed counts and the metrics."""
    problems: List[str] = []
    attempted = failed = 0
    good: Dict[str, List[dict]] = {}
    for kind, group in reps.items():
        for rep in group:
            if "error" in rep:
                # a repetition that raised counts all its requests as failed
                lost = max(1, int(WORKLOADS[rep["workload"]].requests * scale))
                attempted += lost
                failed += lost
                problems.append(f"{kind} repetition failed: {rep['error'].strip()}")
                continue
            attempted += rep["submitted"]
            failed += rep["submitted"] - rep["completed"]
            for check, passed in rep["checks"].items():
                if not passed:
                    problems.append(f"{kind} repetition: check {check} failed")
            good.setdefault(kind, []).append(rep)

    plain = good.get("plain", [])
    # tracing must not change the simulation: plain and traced are one group
    groups = {"plain/traced": plain + good.get("traced", [])}
    groups.update({kind: good[kind] for kind in good if kind not in ("plain", "traced")})
    for kind, group in groups.items():
        for rep in group[1:]:
            if rep["fingerprint"] != group[0]["fingerprint"]:
                problems.append(f"{kind}: fingerprints differ between repetitions")
            if rep["sim"] != group[0]["sim"]:
                problems.append(f"{kind}: simulated metrics differ between repetitions")
    for rung in LADDER:
        for rep in good.get(rung, []):
            if plain and rep["ftl_fingerprint"] != plain[0]["ftl_fingerprint"]:
                problems.append(f"ladder rung {rung}: ftl_fingerprint differs")

    out = {
        "correct": not problems and bool(plain),
        "problems": sorted(set(problems)),
        "attempted": max(1, attempted),
        "failed": failed,
        "reps": len(plain),
    }
    if not plain:
        return out
    cost = [_us_per_page(rep) for rep in plain]
    out["end_to_end"] = {
        # Best repetition, not the median: on a shared machine the noise
        # is one-sided (contention only ever slows a repetition down), and
        # across 10 runs the minimum spread half as wide as the median.
        "host_us_per_page": min(cost),
        "setup_s": median(rep["setup_s"] for rep in plain),
        "peak_rss_mb": max(rep["rss_mb"] for rep in plain),
        **{metric: plain[0]["sim"][metric] for metric in SIM_METRICS},
    }
    if good.get("traced"):
        out["per_layer"] = _per_layer(plain, cost, good)
    return out


def _per_layer(plain: List[dict], cost: List[float], good: Dict[str, List[dict]]) -> dict:
    traced = good["traced"]
    first = traced[0]["layer_data"]
    requests = plain[0]["submitted"]
    pages = plain[0]["pages"]

    def spans(layer: str) -> int:
        return first["layers"][layer]["spans"]

    self_s = {
        layer: median(rep["layer_data"]["layers"][layer]["self_s"] for rep in traced)
        for layer in LAYERS
    }
    metrics = dict(first["counts"])
    metrics.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    metrics.update({
        "traces.requests": requests,
        "traces.self_us_per_request": _ratio(self_s["traces"], requests) * 1e6,
        "traces.drain_us_per_request": median(
            rep["layer_data"]["drain_us_per_request"] for rep in traced),
        "tenancy.calls": spans("tenancy"),
        "tenancy.self_us_per_request": _ratio(self_s["tenancy"], requests) * 1e6
        if spans("tenancy") else 0.0,
        "sim_controller.self_us_per_event": _ratio(
            self_s["sim_controller"], metrics["sim_controller.events"]) * 1e6,
        "ftl.calls": spans("ftl"),
        "ftl.pages": pages,
        "ftl.self_us_per_page": _ratio(self_s["ftl"], pages) * 1e6,
        "flash.calls": spans("flash"),
        "flash.self_us_per_call": _ratio(self_s["flash"], spans("flash")) * 1e6,
        "metrics.observes": spans("metrics"),
        "metrics.self_us_per_observe": _ratio(self_s["metrics"], spans("metrics")) * 1e6,
        "sanitizer.check_now_s": median(rep["layer_data"]["check_now_s"] for rep in traced),
        "host.cpu_us_per_page": median(
            _ratio(rep["cpu_s"], rep["pages"]) * 1e6 for rep in plain),
        "host.wall_over_cpu": median(_ratio(rep["wall_s"], rep["cpu_s"]) for rep in plain),
        "host.median_us_per_page": median(cost),
        "host.rep_spread": _ratio(max(cost) - min(cost), median(cost)),
        "host.reps": len(plain),
        "sim.duration_s": plain[0]["sim"]["duration_s"],
        "sim.backlog_s": first["backlog_s"],
        "sim.p99_response_ms": plain[0]["sim"]["p99_response_ms"],
        "sim.read_mean_ms": plain[0]["sim"]["read_mean_ms"],
        "sim.write_mean_ms": plain[0]["sim"]["write_mean_ms"],
        "trace.overhead_ratio": _ratio(
            min(rep["wall_s"] for rep in traced),
            min(rep["wall_s"] for rep in plain)),
        # wall_s of a traced repetition is clocked outside the tracer
        "trace.coverage": median(
            _ratio(sum(row["self_s"] for row in rep["layer_data"]["layers"].values()),
                   rep["wall_s"])
            for rep in traced),
    })
    # Overhead ladder: every rung over the bare (batch-kernel) run of the
    # same trace; the sanitize rung is the workload's own repetitions.
    rungs = {rung: good[rung] for rung in LADDER if good.get(rung)}
    base = min(map(_us_per_page, rungs["bare"])) if "bare" in rungs else 0.0
    metrics["overhead.base_us_per_page"] = base
    for rung in ("scalar", "tracebus", "faults"):
        rung_cost = min(map(_us_per_page, rungs[rung])) if rung in rungs else 0.0
        metrics[f"overhead.{rung}_ratio"] = _ratio(rung_cost, base)
    metrics["overhead.sanitize_ratio"] = _ratio(min(cost), base)
    # DFTL past its GC cliff: deterministic per seed, so the counts come
    # from the first repetition and the host cost from the best one.
    beyond = good.get("dftl_gc", [])
    metrics.update({
        "dftl_gc.host_us_per_page": min(map(_us_per_page, beyond)) if beyond else 0.0,
        "dftl_gc.moved_pages": beyond[0]["gc_moved_pages"] if beyond else 0,
        "dftl_gc.write_amplification":
            beyond[0]["sim"]["sim_write_amplification"] if beyond else 0.0,
        "dftl_gc.mean_response_ms":
            beyond[0]["sim"]["sim_mean_response_ms"] if beyond else 0.0,
    })
    return metrics
