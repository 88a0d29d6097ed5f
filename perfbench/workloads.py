"""The six benchmark workloads and the regime they share.

Every workload runs on the paper's Table I geometry shrunk 32x
(``scaled_geometry(8, scale=1/32)``: 256 MB, 32 planes, 2 KB pages,
64 pages/block, 3 % extra blocks), preconditioned to 45 % fill, with a
Table II persona confined to a footprint of a quarter of the capacity.
Fill 0.45 / footprint 0.25 is chosen, not inherited: at fill 0.6 /
footprint 0.5 DLOOP's write amplification runs away (2.6 at 20 k
requests, 285 at 100 k), and the 25 k req/s of ``repro.perf``'s
``stream-device-dloop`` builds an unbounded backlog (README.md).

``warmup`` requests of the same trace are replayed untimed, as part of
set-up, so that the timed region of the DLOOP ``build`` workloads is
steady-state garbage collection (page moves ramp up between requests
8 000 and 22 000 of the trace) instead of the ramp.

DFTL is the opposite case.  Its host cost has a cliff where GC starts
to move pages: 17 us/page up to request ~20 300 of the ``build`` trace
(GC passes only erase fully invalid blocks), 370 us/page after it, and
beyond it every statistic of a window the benchmark can afford differs
from seed to seed by more than a bounded metric may (host cost 31 %,
mean response 37 %, write amplification 16 %; quartile distance over
median, 10 seeds).  ``build_dftl`` therefore stops at 18 000 requests,
before the cliff, and the trace's continuation past it is
``build_dftl_gc``: an extra repetition of ``build_dftl``'s traced run
that yields the unbounded ``dftl_gc.*`` per-layer metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

PRECONDITION_FILL = 0.45
FOOTPRINT_SHARE = 0.25
QUEUE_DEPTH = 32
#: ``build`` requests after which DLOOP's GC page moves are steady.
BUILD_WARMUP = 22_000


@dataclass(frozen=True)
class Workload:
    name: str
    ftl: str
    #: Table II persona from ``repro.traces.synthetic``
    persona: str
    #: timed requests (frozen; BENCHMARK.json quotes them)
    requests: int
    #: untimed prefix of the same trace, replayed during set-up (not
    #: with "materialized" admission: submit_many refuses arrivals
    #: earlier than the clock the warm-up left behind)
    warmup: int = 0
    #: time dilation of the persona's request rate (flash-op counts,
    #: hence host time, do not depend on it)
    rate_div: float = 1.0
    #: "stream" (run_stream, queue_depth=32), "materialized"
    #: (list + run: submit_many, list-backed RequestStats) or
    #: "tenants" (3 tenants through build_tenancy + drr_merge)
    admission: str = "stream"
    #: observer attached after the warm-up: "", "tracebus", "sanitize"
    observer: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("build_dloop", "dloop", "build", 65_000,
                 warmup=BUILD_WARMUP, rate_div=16.0),
        Workload("build_dftl", "dftl", "build", 18_000, rate_div=16.0),
        Workload("build_fast_mat", "fast", "build", 38_000,
                 rate_div=16.0, admission="materialized"),
        Workload("fin2_dloop", "dloop", "financial2", 300_000),
        Workload("exch_tenants3_dloop", "dloop", "exchange", 50_000,
                 admission="tenants"),
        Workload("build_dloop_observed", "dloop", "build", 6_000,
                 warmup=BUILD_WARMUP, rate_div=16.0, observer="sanitize"),
        # Not in BENCHMARK.json: build_dftl's trace past the GC cliff
        # (every seed tried crosses it between requests 20 249 and 20 390).
        Workload("build_dftl_gc", "dftl", "build", 1_500,
                 warmup=21_000, rate_div=16.0),
    )
}

#: exch_tenants3_dloop: (name, DRR weight); every tenant has a 20 ms
#: p99 SLO and fills a quarter of its namespace extent.
TENANTS: Tuple[Tuple[str, float], ...] = (("t0", 2.0), ("t1", 1.0), ("t2", 1.0))
TENANT_SLO_P99_MS = 20.0

#: Overhead-ladder rungs: SimulatedSSD keyword arguments and observer.
#: ``faults={}`` is FaultConfig() with its defaults: every rate 0.
#: The ``sanitize`` rung is the ladder workload's own untraced repetition.
LADDER: Dict[str, Tuple[dict, str]] = {
    "bare": ({}, ""),
    "scalar": ({"batch_kernels": False}, ""),
    "tracebus": ({}, "tracebus"),
    "faults": ({"faults": {}}, ""),
}

#: Extra untraced repetitions in every round of a workload's traced run:
#: kind -> (workload, ladder rung or "").
EXTRAS: Dict[str, Dict[str, Tuple[str, str]]] = {
    "build_dloop_observed": {rung: ("build_dloop_observed", rung) for rung in LADDER},
    "build_dftl": {"dftl_gc": ("build_dftl_gc", "")},
}
