"""FTL registry and bulk-fill equivalence."""

import pathlib

import numpy as np
import pytest

from repro.experiments import figures
from repro.ftl.registry import available_ftls, create_ftl, dropped_kwargs, ftl_class

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def test_available_ftls_lists_all():
    assert available_ftls() == [
        "bast", "dftl", "dloop", "dloop-hc", "dloop-hot", "fast", "last", "pagemap"]


# ---- the rule an entry must meet ---------------------------------------------


def test_every_entry_is_read_by_a_benchmark_or_a_paper_grid():
    # An FTL earns its registry entry when a claim reads it: a check
    # under benchmarks/ names it, or a paper grid in
    # repro.experiments.figures runs it.
    named = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        named.update(n for n in available_ftls() if f'"{n}"' in text or f"'{n}'" in text)
    gridded = {ftl for grid in vars(figures).values()
               if isinstance(grid, figures.Grid) for ftl in grid.ftls}
    unread = sorted(set(available_ftls()) - named - gridded)
    assert unread == [], f"registry entries no benchmark or paper grid reads: {unread}"


def test_no_two_entries_share_a_class():
    # A variant that only sets constructor knobs is ``ftl_kwargs`` on its
    # family's entry (as A1 runs DLOOP without copy-back), not a name.
    by_class = {}
    for name in available_ftls():
        by_class.setdefault(ftl_class(name), []).append(name)
    shared = sorted(names for names in by_class.values() if len(names) > 1)
    assert shared == [], f"registry entries sharing a class: {shared}"


def test_create_by_name(small_geometry):
    for name in available_ftls():
        ftl = create_ftl(name, small_geometry)
        assert ftl.geometry is small_geometry


def test_unknown_name(small_geometry):
    with pytest.raises(ValueError, match="unknown FTL"):
        create_ftl("nope", small_geometry)
    with pytest.raises(ValueError, match="unknown FTL"):
        ftl_class("nope")


def test_ftl_class_is_what_create_ftl_builds(small_geometry):
    for name in available_ftls():
        assert type(create_ftl(name, small_geometry)) is ftl_class(name)
    supported = {n for n in available_ftls() if ftl_class(n).fault_injection_supported}
    assert supported == {"dftl", "dloop", "dloop-hc", "dloop-hot", "fast"}
    # SRAM-mapped FTLs accept and drop the CMT knob
    assert {n for n in available_ftls() if "cmt_entries" in dropped_kwargs(n)} == {
        "bast", "fast", "last", "pagemap"}


#: ``len(vars(ftl))`` per registry entry.  CPython 3.11 stores instance
#: attributes inline only while an instance carries at most 30 of them.
INLINE_SLOT_LIMIT = 30
INSTANCE_ATTRIBUTES = {
    "pagemap": 23, "dftl": 25, "dloop": 26, "bast": 26, "fast": 29,
    # known exceptions, already past the limit
    "dloop-hc": 31, "last": 33, "dloop-hot": 34,
}


def test_ftl_instances_stay_within_the_inline_slot_limit(small_geometry):
    assert sorted(INSTANCE_ATTRIBUTES) == available_ftls()
    for name, recorded in INSTANCE_ATTRIBUTES.items():
        count = len(vars(create_ftl(name, small_geometry)))
        if recorded <= INLINE_SLOT_LIMIT:
            assert count <= INLINE_SLOT_LIMIT, (
                f"{name}: {count} instance attributes (was {recorded}); past "
                f"{INLINE_SLOT_LIMIT} every self.x in its loops becomes a dictionary lookup "
                "(+3 % measured on build_fast_mat) — see docs/performance.md, the paragraph "
                "on CPython's inline attribute slots, before caching anything on an FTL"
            )


def test_dloop_nocb_flag(small_geometry):
    ftl = create_ftl("dloop", small_geometry, use_copyback=False)
    assert ftl.use_copyback is False


def test_fast_ignores_cmt_kwargs(small_geometry):
    ftl = create_ftl("fast", small_geometry, cmt_entries=64)
    assert ftl.name == "fast"


@pytest.mark.parametrize("name", ["dloop", "dftl", "fast", "pagemap"])
def test_bulk_fill_equivalent_to_write_loop(small_geometry, timing, name):
    """Vectorised preconditioning produces the same logical state as the
    per-page write path (placement may differ; the mapping must not)."""
    count = int(small_geometry.num_lpns * 0.6)
    fast_path = create_ftl(name, small_geometry, timing)
    fast_path.bulk_fill(count)
    slow_path = create_ftl(name, small_geometry, timing)
    for lpn in range(count):
        slow_path.write_page(lpn, 0.0)
    assert np.array_equal(fast_path.mapped_lpns(), slow_path.mapped_lpns())
    assert len(fast_path.mapped_lpns()) == count
    fast_path.verify_integrity()
    slow_path.verify_integrity()


@pytest.mark.parametrize("name", ["dloop", "pagemap"])
def test_bulk_fill_matches_write_loop_placement(small_geometry, timing, name):
    """For plane-striped FTLs even the plane placement matches."""
    count = int(small_geometry.num_lpns * 0.6)
    fast_path = create_ftl(name, small_geometry, timing)
    fast_path.bulk_fill(count)
    planes = fast_path.geometry.num_planes
    for lpn in range(count):
        ppn = fast_path.current_ppn(lpn)
        assert fast_path.codec.ppn_to_plane(ppn) == lpn % planes


def test_bulk_fill_zero_count(small_geometry, timing):
    ftl = create_ftl("dloop", small_geometry, timing)
    ftl.bulk_fill(0)
    assert len(ftl.mapped_lpns()) == 0
