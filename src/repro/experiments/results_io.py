"""Result persistence: SimulationResult <-> JSON.

Sweeps are expensive; persisting results lets the report/plot step
re-run without re-simulating, and lets CI archive the regenerated
figures next to the paper's numbers.
"""

from __future__ import annotations

import json
from typing import Iterable, List, TextIO, Union

from repro.experiments.runner import SimulationResult
from repro.metrics.wear import WearStats

Sink = Union[str, TextIO]

_SCALAR_FIELDS = [
    "ftl",
    "trace",
    "mean_response_ms",
    "steady_response_ms",
    "read_response_ms",
    "write_response_ms",
    "p99_response_ms",
    "sdrpp",
    "num_requests",
    "host_pages_written",
    "host_pages_read",
    "gc_invocations",
    "gc_passes",
    "gc_moved_pages",
    "gc_copyback_moves",
    "gc_controller_moves",
    "gc_wasted_pages",
    "gc_translation_updates",
    "erases",
    "copybacks",
    "flash_reads",
    "flash_programs",
    "cmt_hit_ratio",
    "sim_duration_s",
    "wall_time_s",
]


def result_to_dict(result: SimulationResult) -> dict:
    """Flatten a result into JSON-serialisable primitives.

    ``plane_ops`` arrives as plain ints (``FlashCounters.as_dict``);
    the ``int()`` pass only defends against hand-built results still
    carrying numpy arrays.
    """
    payload = {name: getattr(result, name) for name in _SCALAR_FIELDS}
    payload["plane_ops"] = [int(x) for x in result.plane_ops]
    payload["wear"] = {
        "total_erases": result.wear.total_erases,
        "max_erases": result.wear.max_erases,
        "mean_erases": result.wear.mean_erases,
        "std_erases": result.wear.std_erases,
    }
    payload["extras"] = dict(result.extras)
    return payload


def result_from_dict(payload: dict) -> SimulationResult:
    """Inverse of :func:`result_to_dict`."""
    wear = WearStats(**payload["wear"])
    kwargs = {name: payload[name] for name in _SCALAR_FIELDS}
    return SimulationResult(
        plane_ops=[int(x) for x in payload["plane_ops"]],
        wear=wear,
        extras=dict(payload.get("extras", {})),
        **kwargs,
    )


def save_results_json(results: Iterable[SimulationResult], sink: Sink) -> None:
    payload = [result_to_dict(r) for r in results]
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    else:
        json.dump(payload, sink, indent=2)


class ResultsFormatError(ValueError):
    """The input is not the results JSON :func:`save_results_json` writes."""


def load_results_json(source: Sink) -> List[SimulationResult]:
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        else:
            payload = json.load(source)
        return [result_from_dict(item) for item in payload]
    except (ValueError, KeyError, TypeError) as exc:
        raise ResultsFormatError(
            f"not a results JSON file ({type(exc).__name__}: {exc})"
        ) from exc
