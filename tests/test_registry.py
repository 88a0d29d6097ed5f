"""FTL registry and bulk-fill equivalence."""

import numpy as np
import pytest

from repro.flash.timing import TimingParams
from repro.ftl.registry import available_ftls, create_ftl, dropped_kwargs, ftl_class


def test_available_ftls_lists_all():
    names = available_ftls()
    for expected in ("dloop", "dloop-nocb", "dloop-hot", "dftl", "fast", "pagemap"):
        assert expected in names


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
    assert supported == {"dftl", "dloop", "dloop-hc", "dloop-hot", "dloop-mp",
                         "dloop-nocb", "fast"}
    # SRAM-mapped FTLs accept and drop the CMT knob
    assert {n for n in available_ftls() if "cmt_entries" in dropped_kwargs(n)} == {
        "bast", "fast", "last", "pagemap", "superblock"}


#: ``len(vars(ftl))`` per registry entry.  CPython 3.11 stores instance
#: attributes inline only while an instance carries at most 30 of them.
INLINE_SLOT_LIMIT = 30
INSTANCE_ATTRIBUTES = {
    "pagemap": 23, "dftl": 25, "dloop": 26, "dloop-nocb": 26, "bast": 26, "dloop-mp": 28,
    "fast": 29, "superblock": 29,
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
    ftl = create_ftl("dloop-nocb", small_geometry)
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
