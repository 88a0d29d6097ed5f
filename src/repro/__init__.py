"""repro — reproduction of "DLOOP: A Flash Translation Layer Exploiting
Plane-Level Parallelism" (Abdurrab, Xie, Wang — IPDPS 2013).

Public API surface:

* :class:`repro.SimulatedSSD` — a complete simulated flash SSD with a
  pluggable FTL (``dloop``, ``dftl``, ``fast``, ``pagemap``, ...).
* :mod:`repro.traces` — trace parsers and the five calibrated
  enterprise workload generators.
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import SimulatedSSD, SSDGeometry
    from repro.traces import generate, io_requests, make_workload

    geometry = SSDGeometry.from_capacity(256 * 1024**2)
    ssd = SimulatedSSD(geometry, ftl="dloop")
    spec = make_workload("financial1", num_requests=5000,
                         footprint_bytes=geometry.capacity_bytes // 2)
    ssd.run(io_requests(generate(spec), geometry))
    print(ssd.mean_response_ms(), "ms")
"""

from repro.controller.device import SimulatedSSD
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.registry import available_ftls, create_ftl
from repro.sim.request import IoOp, IoRequest

__version__ = "1.0.0"

__all__ = [
    "SimulatedSSD",
    "SSDGeometry",
    "TimingParams",
    "available_ftls",
    "create_ftl",
    "IoOp",
    "IoRequest",
    "__version__",
]
