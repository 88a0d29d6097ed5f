"""FTL framework and baseline flash translation layers.

Shared machinery (Cached Mapping Table, Global Translation Directory,
per-plane allocators, GC helpers) plus the comparison FTLs the paper
evaluates against: FAST (hybrid log-block) and DFTL (demand-paged
page mapping), and an ideal page-map reference.
"""

from repro.ftl.base import Ftl, FtlStats, OutOfSpaceError
from repro.ftl.cmt import CachedMappingTable
from repro.ftl.gtd import GlobalTranslationDirectory
from repro.ftl.allocator import PlaneAllocator, RoamingAllocator
from repro.ftl.pagemap import PageMapFtl
from repro.ftl.dftl import DftlFtl
from repro.ftl.fast import FastFtl
from repro.ftl.bast import BastFtl
from repro.ftl.last import LastFtl
from repro.ftl.registry import available_ftls, create_ftl

__all__ = [
    "Ftl",
    "FtlStats",
    "OutOfSpaceError",
    "CachedMappingTable",
    "GlobalTranslationDirectory",
    "PlaneAllocator",
    "RoamingAllocator",
    "PageMapFtl",
    "DftlFtl",
    "FastFtl",
    "BastFtl",
    "LastFtl",
    "available_ftls",
    "create_ftl",
]
