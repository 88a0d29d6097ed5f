"""A10 — plane enumeration: channel-interleaved vs die-major.

A silent design decision behind Section IV.B's interleaving: striping
by ``LPN % planes`` reaches multiple *channels* per request only if
consecutive plane indices live on different channels.  Running DLOOP on
both enumerations (identical hardware, different numbering) exposes a
classic striping-width trade-off:

* **idle device** — channel-interleaving fans one multi-page request
  over several channels: lower single-request latency;
* **sustained load** — it also couples every request to every channel
  (fate sharing); die-major partitions requests across channels and can
  win on mean/tail under pressure.

Both sides are measured and asserted.
"""

import dataclasses

from conftest import BENCH_REQUESTS, BENCH_SCALE, run_once

from repro.controller.device import SimulatedSSD
from repro.experiments.config import ExperimentConfig, GB, scaled_geometry
from repro.experiments.runner import run_workload
from repro.metrics.report import format_table
from repro.sim.request import IoOp, IoRequest
from repro.traces.synthetic import make_workload


def run_plane_order():
    base = scaled_geometry(2, scale=BENCH_SCALE)
    footprint = int(2 * GB * BENCH_SCALE * 0.45)
    idle_rows, loaded_rows = [], []
    for order in ("channel-interleaved", "die-major"):
        geometry = dataclasses.replace(base, plane_order=order)
        # idle: one 8-page request on a quiet device
        ssd = SimulatedSSD(geometry, ftl="dloop")
        ssd.run([IoRequest(0.0, 0, 8, IoOp.WRITE)])
        idle_rows.append(
            {"plane_order": order, "single_8page_write_us": ssd.stats.reservoir.values[0]}
        )
        # loaded: the tpcc replay
        spec = make_workload("tpcc", num_requests=BENCH_REQUESTS, footprint_bytes=footprint)
        config = ExperimentConfig(geometry=geometry, ftl="dloop", precondition_fill=0.52)
        r = run_workload(spec, config)
        loaded_rows.append(
            {"plane_order": order, "mean_ms": r.mean_response_ms, "p99_ms": r.p99_response_ms}
        )
    return idle_rows, loaded_rows


def test_ablation_plane_order(benchmark):
    idle_rows, loaded_rows = run_once(benchmark, run_plane_order)
    print()
    print(format_table(idle_rows, title="A10a — idle single-request latency (8-page write)"))
    print()
    print(format_table(loaded_rows, title="A10b — tpcc under load"))
    idle = {r["plane_order"]: r["single_8page_write_us"] for r in idle_rows}
    # fanning one request over channels must cut its idle latency
    assert idle["channel-interleaved"] < idle["die-major"]
    # under load the orderings trade places (fate sharing vs partitioning);
    # both must stay within a small factor — reported, sanity-checked
    loaded = {r["plane_order"]: r["mean_ms"] for r in loaded_rows}
    ratio = loaded["channel-interleaved"] / loaded["die-major"]
    assert 0.2 < ratio < 5.0
