"""Name-based FTL factory used by the experiment harness and examples."""

from __future__ import annotations

from typing import Callable, Dict

from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import Ftl


def _build_dloop(geometry, timing, **kw):
    from repro.core.dloop import DloopFtl

    return DloopFtl(geometry, timing, **kw)


def _build_dloop_nocb(geometry, timing, **kw):
    from repro.core.dloop import DloopFtl

    kw.setdefault("use_copyback", False)
    return DloopFtl(geometry, timing, **kw)


def _build_dloop_hot(geometry, timing, **kw):
    from repro.core.hotdloop import HotPlaneDloopFtl

    return HotPlaneDloopFtl(geometry, timing, **kw)


def _build_dloop_hc(geometry, timing, **kw):
    from repro.core.hcdloop import HotColdDloopFtl

    return HotColdDloopFtl(geometry, timing, **kw)


def _build_dloop_mp(geometry, timing, **kw):
    from repro.core.mpdloop import MultiPlaneDloopFtl

    return MultiPlaneDloopFtl(geometry, timing, **kw)


def _build_dftl(geometry, timing, **kw):
    from repro.ftl.dftl import DftlFtl

    return DftlFtl(geometry, timing, **kw)


def _build_fast(geometry, timing, **kw):
    from repro.ftl.fast import FastFtl

    kw.pop("cmt_entries", None)  # FAST keeps its block map in SRAM
    kw.pop("max_gc_passes", None)
    return FastFtl(geometry, timing, **kw)


def _build_bast(geometry, timing, **kw):
    from repro.ftl.bast import BastFtl

    kw.pop("cmt_entries", None)
    kw.pop("max_gc_passes", None)
    return BastFtl(geometry, timing, **kw)


def _build_last(geometry, timing, **kw):
    from repro.ftl.last import LastFtl

    kw.pop("cmt_entries", None)
    kw.pop("max_gc_passes", None)
    return LastFtl(geometry, timing, **kw)


def _build_superblock(geometry, timing, **kw):
    from repro.ftl.superblock import SuperblockFtl

    kw.pop("cmt_entries", None)
    kw.pop("max_gc_passes", None)
    return SuperblockFtl(geometry, timing, **kw)


def _build_pagemap(geometry, timing, **kw):
    from repro.ftl.pagemap import PageMapFtl

    kw.pop("cmt_entries", None)
    return PageMapFtl(geometry, timing, **kw)


_FACTORIES: Dict[str, Callable[..., Ftl]] = {
    "dloop": _build_dloop,
    "dloop-nocb": _build_dloop_nocb,
    "dloop-hot": _build_dloop_hot,
    "dloop-mp": _build_dloop_mp,
    "dloop-hc": _build_dloop_hc,
    "dftl": _build_dftl,
    "fast": _build_fast,
    "bast": _build_bast,
    "last": _build_last,
    "superblock": _build_superblock,
    "pagemap": _build_pagemap,
}


def available_ftls() -> list:
    return sorted(_FACTORIES)


def create_ftl(name: str, geometry: SSDGeometry, timing: TimingParams | None = None, **kwargs) -> Ftl:
    """Instantiate an FTL by name (see :func:`available_ftls`)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown FTL {name!r}; available: {available_ftls()}") from None
    # Accepted and ignored: the frozen benchmark's overhead ladder
    # (perfbench/workloads.py, "scalar" rung) still passes the switch of
    # a second DLOOP implementation that no longer exists.
    kwargs.pop("batch_kernels", None)
    return factory(geometry, timing, **kwargs)
