"""Experiment configuration and the capacity-scaling rule.

The paper simulates 2-64 GB SSDs over traces with millions of requests.
A pure-Python replay of that volume across 75 configurations is not
practical, so the harness runs a *scaled* reproduction: geometry
capacities and trace footprints shrink by a common ``scale`` factor
(default 1/16) while page size, pages/block, plane count, timing and
the utilisation regime stay identical — so GC pressure, queueing and
the relative ordering of the FTLs are preserved.  EXPERIMENTS.md
records the scale used for each reported artefact.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional, TextIO, Union

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.registry import dropped_kwargs

GB = 1024 ** 3
MB = 1024 ** 2
KB = 1024

#: Default linear shrink applied to paper capacities (and footprints).
DEFAULT_SCALE = 1.0 / 16.0


def scaled_geometry(
    paper_capacity_gb: float,
    *,
    scale: float = DEFAULT_SCALE,
    page_size: int = 2 * KB,
    pages_per_block: int = 64,
    extra_blocks_percent: float = 3.0,
    channels: int = 8,
    dies_per_chip: int = 2,
    planes_per_die: int = 2,
) -> SSDGeometry:
    """Geometry for a paper capacity point, shrunk by ``scale``."""
    capacity = int(paper_capacity_gb * GB * scale)
    return SSDGeometry.from_capacity(
        capacity,
        page_size=page_size,
        pages_per_block=pages_per_block,
        channels=channels,
        dies_per_chip=dies_per_chip,
        planes_per_die=planes_per_die,
        extra_blocks_percent=extra_blocks_percent,
    )


@dataclass
class ExperimentConfig:
    """Everything one simulation run needs besides the trace itself."""

    geometry: SSDGeometry = field(default_factory=SSDGeometry)
    timing: TimingParams = field(default_factory=TimingParams)
    ftl: str = "dloop"
    cmt_entries: int = 4096
    gc_threshold: int = 3
    precondition_fill: Optional[float] = 0.9
    ftl_kwargs: dict = field(default_factory=dict)

    def build_kwargs(self) -> dict:
        kwargs = dict(self.ftl_kwargs)
        kwargs.setdefault("gc_threshold", self.gc_threshold)
        # FTLs whose mapping tables live wholly in SRAM take no CMT knob.
        if "cmt_entries" not in dropped_kwargs(self.ftl):
            kwargs.setdefault("cmt_entries", self.cmt_entries)
        return kwargs


# ---- serialisation -----------------------------------------------------------------
#
# Experiments are fully described by plain dicts (JSON-safe), so sweep
# definitions can live in config files and results stay reproducible.


def geometry_to_dict(geometry: SSDGeometry) -> dict:
    return dataclasses.asdict(geometry)


def geometry_from_dict(payload: dict) -> SSDGeometry:
    return SSDGeometry(**payload)


def timing_to_dict(timing: TimingParams) -> dict:
    return dataclasses.asdict(timing)


def timing_from_dict(payload: dict) -> TimingParams:
    return TimingParams(**payload)


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "geometry": geometry_to_dict(config.geometry),
        "timing": timing_to_dict(config.timing),
        "ftl": config.ftl,
        "cmt_entries": config.cmt_entries,
        "gc_threshold": config.gc_threshold,
        "precondition_fill": config.precondition_fill,
        "ftl_kwargs": dict(config.ftl_kwargs),
    }


def config_from_dict(payload: dict) -> ExperimentConfig:
    return ExperimentConfig(
        geometry=geometry_from_dict(payload["geometry"]),
        timing=timing_from_dict(payload.get("timing", {})),
        ftl=payload.get("ftl", "dloop"),
        cmt_entries=payload.get("cmt_entries", 4096),
        gc_threshold=payload.get("gc_threshold", 3),
        precondition_fill=payload.get("precondition_fill", 0.9),
        ftl_kwargs=dict(payload.get("ftl_kwargs", {})),
    )


def save_config(config: ExperimentConfig, sink: Union[str, TextIO]) -> None:
    payload = config_to_dict(config)
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    else:
        json.dump(payload, sink, indent=2)


def load_config(source: Union[str, TextIO]) -> ExperimentConfig:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.load(source)
    return config_from_dict(payload)
