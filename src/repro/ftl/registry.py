"""Name-based FTL factory used by the experiment harness and examples."""

from __future__ import annotations

from importlib import import_module
from typing import Dict, Tuple, Type

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import Ftl

#: SRAM-mapped FTLs take no CMT knob.
_SRAM_MAP = ("cmt_entries",)

#: name -> (module, class, constructor defaults, kwargs accepted and dropped).
#: Classes import lazily: naming an FTL never loads the others.
_REGISTRY: Dict[str, Tuple[str, str, Dict[str, object], Tuple[str, ...]]] = {
    "dloop": ("repro.core.dloop", "DloopFtl", {}, ()),
    "dloop-hot": ("repro.core.hotdloop", "HotPlaneDloopFtl", {}, ()),
    "dloop-hc": ("repro.core.hcdloop", "HotColdDloopFtl", {}, ()),
    "dftl": ("repro.ftl.dftl", "DftlFtl", {}, ()),
    "fast": ("repro.ftl.fast", "FastFtl", {}, _SRAM_MAP),
    "bast": ("repro.ftl.bast", "BastFtl", {}, _SRAM_MAP),
    "last": ("repro.ftl.last", "LastFtl", {}, _SRAM_MAP),
    "pagemap": ("repro.ftl.pagemap", "PageMapFtl", {}, _SRAM_MAP),
}


def available_ftls() -> list:
    return sorted(_REGISTRY)


def _entry(name: str) -> Tuple[str, str, Dict[str, object], Tuple[str, ...]]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown FTL {name!r}; available: {available_ftls()}") from None


def ftl_class(name: str) -> Type[Ftl]:
    """The class registered under ``name`` (imported on first use)."""
    module, cls, _, _ = _entry(name)
    return getattr(import_module(module), cls)


def dropped_kwargs(name: str) -> Tuple[str, ...]:
    """Constructor kwargs ``create_ftl`` accepts for ``name`` but drops."""
    return _entry(name)[3]


def create_ftl(name: str, geometry: SSDGeometry, timing: TimingParams | None = None, **kwargs) -> Ftl:
    """Instantiate an FTL by name (see :func:`available_ftls`)."""
    _, _, defaults, dropped = _entry(name)
    # ``batch_kernels`` is accepted and ignored: the frozen benchmark's
    # overhead ladder (perfbench/workloads.py, "scalar" rung) still
    # passes the switch of a second DLOOP implementation that no longer
    # exists.
    for key in dropped + ("batch_kernels",):
        kwargs.pop(key, None)
    return ftl_class(name)(geometry, timing, **{**defaults, **kwargs})
