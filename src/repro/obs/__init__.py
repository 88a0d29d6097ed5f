"""Observability layer: tracing and live run statistics.

The standard lens for looking *inside* a simulated device:

* :mod:`repro.obs.tracebus` — the process-wide :data:`BUS` every
  instrumented hot path publishes to (near-zero overhead when off);
* :mod:`repro.obs.chrome_trace` — export recorded events as Chrome
  trace-event JSON for Perfetto / ``chrome://tracing``, one row per
  plane and per channel;
* :mod:`repro.obs.sampler` — periodic snapshot sampler (queue depth,
  free blocks per plane, CMT occupancy, copy-back ratio) driven by the
  simulation clock.

See ``docs/observability.md`` for the recording/viewing workflow.
"""

from repro.obs.chrome_trace import ChromeTraceWriter
from repro.obs.sampler import RunStats, StatsSampler
from repro.obs.tracebus import BUS, TraceBus, TraceEvent

__all__ = [
    "BUS",
    "TraceBus",
    "TraceEvent",
    "ChromeTraceWriter",
    "RunStats",
    "StatsSampler",
]
