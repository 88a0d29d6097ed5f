"""Workload traces: parsers for on-disk formats and calibrated synthetic
generators standing in for the five enterprise traces of Table II.
"""

from repro.traces.model import TraceRequest, WorkloadSpec, SizeMix
from repro.traces.zipf import ZipfSampler
from repro.traces.synthetic import (
    generate,
    financial1,
    financial2,
    tpcc,
    exchange,
    build_server,
    make_workload,
    web_server,
    streaming,
    boot_storm,
    EXTRA_TRACE_NAMES,
)
from repro.traces.stats import TraceStats, measure
from repro.traces.analysis import WorkloadCharacter, characterize
from repro.traces.parser import (
    TraceFormatError,
    parse_disksim,
    write_disksim,
    parse_spc,
    write_spc,
    iter_disksim,
    iter_spc,
    iter_trace_file,
)
from repro.traces.stream import DEFAULT_CHUNK_REQUESTS, io_requests, stream_workload

__all__ = [
    "TraceRequest",
    "WorkloadSpec",
    "SizeMix",
    "ZipfSampler",
    "generate",
    "financial1",
    "financial2",
    "tpcc",
    "exchange",
    "build_server",
    "make_workload",
    "web_server",
    "streaming",
    "boot_storm",
    "EXTRA_TRACE_NAMES",
    "TraceStats",
    "measure",
    "WorkloadCharacter",
    "characterize",
    "TraceFormatError",
    "parse_disksim",
    "write_disksim",
    "parse_spc",
    "write_spc",
    "iter_disksim",
    "iter_spc",
    "iter_trace_file",
    "DEFAULT_CHUNK_REQUESTS",
    "io_requests",
    "stream_workload",
]
