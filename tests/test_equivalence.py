"""One host-write body for the demand-paged family.

``DemandPagedFtl.write_page`` is the only host-write code DLOOP, its
variants and DFTL run; placement (``_host_write_point``) is what they
spell differently.  This file holds it to four things:

* **flat ≡ composed** — a reference ``write_page`` that composes the
  protocol from public calls (``allocator.allocate``,
  ``FlashArray.invalidate``, ``clock.program_page``, ``tm.charge_*``,
  unguarded ``_maybe_gc``) lives here, in ``tests/``, and a hypothesis
  property asserts that random write / read / trim sequences leave the
  same TraceBus stream, fingerprint, counters and statistics behind —
  disarmed, with OOB generations armed, and under a zero-rate fault plan;
* **order facts** — ``replay_sweep_fingerprints.json["host_write_event_streams"]``
  was recorded at the last commit where ``DloopFtl`` and ``DftlFtl`` each
  had a ``write_page`` of their own, and pins the event streams of the
  three places the merge could have reordered something;
* **structure** — every family member resolves ``write_page`` to the one
  shared function;
* **end of life** — both raise sites end in ``OutOfSpaceError`` with the
  text each FTL has always put into ``IoRequest.error``.

(The golden replay sweep this builds on is ``tests/test_replay_sweep.py``.)
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.controller.device import SimulatedSSD
from repro.experiments.config import scaled_geometry
from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.flash.array import FlashStateError
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import OutOfSpaceError
from repro.ftl.registry import create_ftl
from repro.ftl.translation import DemandPagedFtl
from repro.obs.tracebus import BUS
from repro.perf.fingerprint import ftl_fingerprint
from repro.sim.request import IoOp, IoRequest
from tests.ftl_cases import resolve
from tests.test_reclaim_paths import _arm_generations, event_stream_crc

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "replay_sweep_fingerprints.json")

#: The FTLs whose ``write_page`` is ``DemandPagedFtl.write_page`` itself.
FAMILY = ("dloop", "dloop-nocb", "dloop-hc", "dftl")


def _small(blocks_per_plane: int = 16, pages_per_block: int = 8,
           extra: float = 25.0) -> SSDGeometry:
    """2 channels x 2 planes."""
    return SSDGeometry(channels=2, dies_per_chip=1, planes_per_die=2,
                       blocks_per_plane=blocks_per_plane, pages_per_block=pages_per_block,
                       page_size=512, extra_blocks_percent=extra)


# ---- driving an FTL and digesting what it did -----------------------------------


def _attach_zero_rate_faults(ftl) -> None:
    """A fault plan that never fires: the ``faults is not None`` branches
    run, the outcome must be the fault-free one."""
    ftl.attach_faults(FaultInjector(ftl.array, ftl.clock, FaultPlan(FaultConfig(seed=3))))


MODES = {"disarmed": None, "armed": _arm_generations, "zero-rate-faults": _attach_zero_rate_faults}


def _mixed_ops(seed: int, count: int, lpns) -> list:
    """Seeded ``(op, lpn)`` pairs over ``lpns``: 80 % writes, reads, a few trims."""
    rng = random.Random(seed)
    return [(rng.choice("wwwwwwwwrt"), rng.choice(lpns)) for _ in range(count)]


def _drive(ftl, ops, order=None) -> dict:
    """Run ``(op, lpn)`` pairs straight through the FTL (so the outcome
    cannot depend on a controller) and digest everything observable.

    ``order`` (a :class:`_WriteOrder`) is shown each host write's events.
    """
    t = 0.0
    failed = []
    with BUS.capture() as events:
        for op, lpn in ops:
            first = len(events)
            try:
                if op == "w":
                    if order is not None:
                        order.begin_write()
                    t = ftl.write_page(lpn, t)
                    if order is not None:
                        order.end_write(ftl, lpn, events[first:])
                elif op == "r":
                    t = ftl.read_page(lpn, t)
                else:
                    t = ftl.trim_page(lpn, t)
            except OutOfSpaceError as exc:
                assert isinstance(exc.__cause__, FlashStateError)
                failed.append((op, lpn))
    ftl.verify_integrity()
    return {
        "stream": event_stream_crc(events),
        "fingerprint": ftl_fingerprint(ftl, t),
        "flash": ftl.clock.counters.as_dict(),
        "gc": asdict(ftl.gc_stats),
        "translation": asdict(ftl.tm.stats),
        "failed": failed,
    }


# ---- flat ≡ composed --------------------------------------------------------------


class _ComposedWrite:
    """The host-write protocol composed from public calls, one call per
    primitive — the form each FTL spelled for itself before the flat
    bodies, and the definition the flat body must keep equalling."""

    def write_page(self, lpn: int, start: float) -> float:
        self.check_lpn(lpn)
        self.stats.host_writes += 1
        t = self.tm.charge_lookup(lpn, start)
        plane, allocator = self._host_write_point(lpn)
        try:
            t = self._maybe_gc(plane, t)
        except FlashStateError as exc:
            raise OutOfSpaceError(f"cannot reclaim space for lpn {lpn}") from exc
        old_ppn = self.current_ppn(lpn)
        faults = self.faults
        try:
            if faults is None:
                new_ppn = allocator.allocate(lpn)
            else:
                new_ppn, t = faults.program(allocator, lpn, t)
        except FlashStateError as exc:
            raise OutOfSpaceError(f"cannot place write for lpn {lpn}") from exc
        plane = self.codec.ppn_to_plane(new_ppn)
        if faults is None:
            t = self.clock.program_page(plane, t)
        if old_ppn != -1:
            self.array.invalidate(old_ppn)
        self.page_table[lpn] = new_ppn
        t = self.tm.charge_update(lpn, t)
        t = self._maybe_gc(plane, t)
        if self.debug_checks:
            self.verify_integrity()
        return t


def _composed(ftl):
    """Rebase ``ftl`` onto a subclass with the reference ``write_page`` mixed in."""
    cls = type(ftl)
    # (as a namespace entry: CPython refuses __class__ assignment across
    # a second base, even an empty one)
    mixed = {"write_page": _ComposedWrite.write_page}
    ftl.__class__ = type(f"Composed{cls.__name__}", (cls,), mixed)
    return ftl


#: Preconditioned devices that reach GC within the seeded warm-up: the
#: host LPNs a sequence draws from, and how full the device starts.
DEVICES = {
    # (long enough that DFTL's pre-write passes move its active block
    # to another plane eight times)
    "2x2": dict(geometry=_small(), fill=0.6, warmup=1000, kwargs=dict(cmt_entries=32)),
    # The paper's geometry at 1/32 (32 planes, 64-page blocks, 3 % spare):
    # four free blocks per plane after the fill, writes kept to four
    # planes' LPNs so their blocks roll over inside the warm-up.  (Any
    # fuller and dloop-hc, two frontiers a plane, runs away: 3 800 passes.)
    "paper/32": dict(geometry=scaled_geometry(8, scale=1 / 32), fill=0.95, warmup=500,
                     planes=4, kwargs=dict(cmt_entries=64)),
}


def _host_lpns(device: dict) -> list:
    geometry = device["geometry"]
    mapped = int(geometry.num_lpns * device["fill"])
    if "planes" not in device:
        return list(range(int(mapped * 0.8)))
    stride = geometry.num_planes
    return [lpn for lpn in range(0, 24 * stride) if lpn % stride < device["planes"]]


def _build(name: str, device: dict, mode: str, composed: bool):
    geometry = device["geometry"]
    name, kwargs = resolve(name)
    ftl = create_ftl(name, geometry, TimingParams(), **device["kwargs"], **kwargs)
    if composed:
        _composed(ftl)
    if MODES[mode] is not None:
        MODES[mode](ftl)
    ftl.bulk_fill(int(geometry.num_lpns * device["fill"]))
    return ftl


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("device_id", sorted(DEVICES))
@pytest.mark.parametrize("name", ("dloop", "dloop-nocb", "dloop-hc", "dftl"))
@settings(max_examples=5, deadline=None, suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_flat_write_equals_the_composed_protocol(name, device_id, mode, data):
    device = DEVICES[device_id]
    lpns = _host_lpns(device)
    ops = _mixed_ops(0xF1A7, device["warmup"], lpns) + data.draw(st.lists(
        st.tuples(st.sampled_from("wwwwwwrt"), st.sampled_from(lpns)), max_size=120))
    flat = _drive(_build(name, device, mode, composed=False), ops)
    reference = _drive(_build(name, device, mode, composed=True), ops)
    assert flat["gc"]["passes"] > 0 and flat["gc"]["moved_pages"] > 0, "GC not reached"
    assert flat == reference


def test_the_reference_is_not_the_flat_body():
    ftl = _composed(create_ftl("dftl", _small()))
    assert type(ftl).write_page is _ComposedWrite.write_page
    assert type(ftl).read_page is DemandPagedFtl.read_page
    assert type(ftl)._host_write_point is type(create_ftl("dftl", _small()))._host_write_point


# ---- order facts pinned from the parent ---------------------------------------------


def _is_host_program(events, i: int, lpn: int) -> bool:
    """``events[i]`` is the host write's own ``array/program``: the one
    for ``lpn`` that the timekeeper prices straight away (a GC copy of the
    same LPN is followed by the copy's read)."""
    event = events[i]
    return (event.category == "array" and event.name == "program"
            and event.args["owner"] == lpn and i + 1 < len(events)
            and events[i + 1].category == "flash" and events[i + 1].name == "program")


class _WriteOrder:
    """What a cell's host writes did, read off each write's events."""

    def __init__(self) -> None:
        self.alloc_then_invocation = 0
        self.prewrite_plane_moves = 0
        self.host_programs = 0
        self.programs_off_the_ppn_plane = 0
        self._mapping_updated = False

    def watch_roaming_plane(self, ftl) -> None:
        """Count the pre-write passes that move DFTL's active block to
        another plane.  ``write_page``'s own ``_maybe_gc`` calls see the
        spy (the translation manager holds the unwrapped method); the one
        before the write's ``charge_update`` is the pre-write one."""
        maybe_gc = ftl._maybe_gc
        charge_update = ftl.tm.charge_update
        allocator = ftl.data_allocator

        def spy(plane, now):
            before = allocator.current_plane
            t = maybe_gc(plane, now)
            if not self._mapping_updated and allocator.current_plane != before:
                self.prewrite_plane_moves += 1
            return t

        def note_update(lpn, now):
            self._mapping_updated = True
            return charge_update(lpn, now)

        ftl._maybe_gc = spy
        ftl.tm.charge_update = note_update

    def begin_write(self) -> None:
        self._mapping_updated = False

    def end_write(self, ftl, lpn, events) -> None:
        names = [(event.category, event.name) for event in events]
        for pair in zip(names, names[1:]):
            if pair == (("array", "alloc_block"), ("gc", "gc_invocation")):
                self.alloc_then_invocation += 1
        ppp = ftl.geometry.pages_per_plane
        for i in range(len(events)):
            if _is_host_program(events, i, lpn):
                self.host_programs += 1
                if events[i + 1].args["plane"] != events[i].args["ppn"] // ppp:
                    self.programs_off_the_ppn_plane += 1

    def counts(self) -> dict:
        return {name: value for name, value in vars(self).items() if not name.startswith("_")}


HOST_WRITE_CELLS = {
    # Ordinary GC (no emergency pass, the roaming block never moved by a
    # pre-write pass): the global active block rolls over while a plane
    # is low, so the new block is opened *before* the pre-write invocation.
    "dftl/block-rollover": dict(ftl="dftl", geometry=_small(24, 16), fill=0.5, space=0.55,
                                ops=1500, kwargs=dict(cmt_entries=16)),
    # Pre-write passes relocate through the roaming allocator and move the
    # active block to another plane: the program must be priced where the
    # page landed.
    "dftl/roaming-moves": dict(ftl="dftl", geometry=_small(), fill=0.6, space=0.5,
                               ops=1500, kwargs=dict(cmt_entries=16)),
    # The hot or cold frontier is chosen before the pre-write GC now.
    "dloop-hc/frontiers": dict(ftl="dloop-hc", geometry=_small(), fill=0.6, space=0.5,
                               ops=1500, kwargs=dict(cmt_entries=16, hot_window=24)),
}


def host_write_event_stream(cell_id: str) -> dict:
    """Run one cell; returns what the fixture pins."""
    cell = HOST_WRITE_CELLS[cell_id]
    geometry = cell["geometry"]
    ftl = create_ftl(cell["ftl"], geometry, TimingParams(), **cell["kwargs"])
    ftl.bulk_fill(int(geometry.num_lpns * cell["fill"]))
    order = _WriteOrder()
    if cell["ftl"] == "dftl":
        order.watch_roaming_plane(ftl)
    # half the writes re-hit a small set, so dloop-hc sees hot pages
    span = int(geometry.num_lpns * cell["space"])
    rng = random.Random(0xD100)
    ops = []
    for _ in range(cell["ops"]):
        lpn = rng.randrange(16) if rng.random() < 0.5 else rng.randrange(span)
        ops.append((rng.choice("wwwwwwwwrt"), lpn))
    observed = _drive(ftl, ops, order)
    observed.update(order.counts())
    if cell["ftl"] == "dloop-hc":
        observed.update(hot_writes=ftl.hot_writes, cold_writes=ftl.cold_writes)
    return observed


@lru_cache(maxsize=None)
def _golden() -> dict:
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)["host_write_event_streams"]


@pytest.mark.parametrize("cell_id", sorted(HOST_WRITE_CELLS))
def test_host_write_event_stream(cell_id):
    observed = json.loads(json.dumps(host_write_event_stream(cell_id)))
    assert observed == _golden()[cell_id]


def test_recorded_host_write_cells_take_their_paths():
    # On the *recorded* values, so a cell cannot go vacuous unnoticed.
    golden = _golden()
    rollover = golden["dftl/block-rollover"]
    assert rollover["alloc_then_invocation"] > 0
    assert rollover["gc"]["passes"] > 0 and rollover["gc"]["emergency_passes"] == 0
    assert rollover["failed"] == []
    moves = golden["dftl/roaming-moves"]
    assert moves["prewrite_plane_moves"] > 0
    # (the fill's tail pages are host writes too, made before the cell watches)
    assert 0 < moves["host_programs"] <= moves["fingerprint"]["host_writes"]
    assert moves["programs_off_the_ppn_plane"] == 0
    frontiers = golden["dloop-hc/frontiers"]
    assert frontiers["hot_writes"] > 0 and frontiers["cold_writes"] > 0
    assert frontiers["hot_writes"] + frontiers["cold_writes"] == frontiers["fingerprint"]["host_writes"]
    assert frontiers["gc"]["passes"] > 0


# ---- structure ------------------------------------------------------------------------


@pytest.mark.parametrize("name", FAMILY)
def test_one_host_write_body(name):
    name, kwargs = resolve(name)
    ftl = create_ftl(name, _small(), **kwargs)
    assert type(ftl).write_page is DemandPagedFtl.write_page
    assert type(ftl).read_page is DemandPagedFtl.read_page
    assert type(ftl).trim_page is DemandPagedFtl.trim_page
    assert "write_page" not in vars(ftl)


def test_the_heat_counter_wraps_the_shared_body():
    # dloop-hot counts per-plane write heat, then runs the shared body.
    cls = type(create_ftl("dloop-hot", _small()))
    assert cls.write_page is not DemandPagedFtl.write_page
    owners = [klass for klass in cls.__mro__ if "write_page" in vars(klass)]
    assert owners[:2] == [cls, DemandPagedFtl]


# ---- end of life: typed, per FTL, in the parent's words ----------------------------------


#: ``IoRequest.error`` per FTL and raise site.
END_OF_LIFE_TEXT = {
    "dloop": ("plane {plane}: cannot reclaim space for lpn {lpn} — device full",
              "plane {plane}: cannot place write for lpn {lpn} — device full"),
    "dftl": ("cannot place write for lpn {lpn} — device full",
             "cannot place write for lpn {lpn} — device full"),
}
END_OF_LIFE_TEXT["dloop-nocb"] = END_OF_LIFE_TEXT["dloop-hc"] = END_OF_LIFE_TEXT["dloop"]
END_OF_LIFE_TEXT["dloop-hot"] = END_OF_LIFE_TEXT["dloop"]


LPN = 7


def _full_device(name: str) -> SimulatedSSD:
    """A preconditioned device with every write point open and ``LPN``'s
    mapping cached, whose free pools then vanish: every block still free
    is taken out of circulation, as worn-out blocks are."""
    name, kwargs = resolve(name)
    ssd = SimulatedSSD(_small(), ftl=name, **kwargs)
    ssd.precondition(0.5)
    ftl = ssd.ftl
    for lpn in range(ftl.geometry.num_planes):
        ftl.write_page(lpn, 0.0)
    ftl.read_page(LPN, 0.0)
    array = ftl.array
    for plane in range(array.geometry.num_planes):
        while array.free_block_count(plane):
            array.allocate_block(plane)
    return ssd


def _use_up_open_blocks(ftl) -> None:
    ppb = ftl.geometry.pages_per_block
    for allocator in ftl._all_allocators():
        block = allocator.current_block
        while block is not None and ftl.array.block_write_ptr[block] < ppb:
            ftl.array.skip_page(block * ppb + ftl.array.block_write_ptr[block])


def _fail_one_write(ssd, site: str):
    """Submit a write of ``LPN`` whose pre-write pass either runs out of
    destination space (``reclaim``) or leaves no page to place the write
    on (``placement``); returns the failed request and the FTL's error."""
    ftl = ssd.ftl

    def prewrite_pass(plane, now):
        if site == "reclaim":
            raise FlashStateError(f"plane {plane} has no free blocks")
        _use_up_open_blocks(ftl)
        return now

    ftl._maybe_gc = prewrite_pass
    request = IoRequest(0.0, LPN, 1, IoOp.WRITE)
    ssd.run([request])  # must not raise: the request fails, the device lives
    assert ssd.stats.failed_requests == 1
    with pytest.raises(OutOfSpaceError) as caught:
        ftl.write_page(LPN, 0.0)
    assert isinstance(caught.value.__cause__, FlashStateError)
    return request, str(caught.value)


@pytest.mark.parametrize("site", ("reclaim", "placement"))
@pytest.mark.parametrize("name", sorted(END_OF_LIFE_TEXT))
def test_end_of_life_is_typed_and_worded_per_ftl(name, site):
    ssd = _full_device(name)
    request, raised = _fail_one_write(ssd, site)
    text = END_OF_LIFE_TEXT[name][site == "placement"].format(
        plane=LPN % ssd.ftl.geometry.num_planes, lpn=LPN)
    assert request.error == raised == text


def test_dftl_with_no_block_to_open_fails_the_request():
    # The third site: the placement hook itself cannot open an active block.
    ssd = _full_device("dftl")
    _use_up_open_blocks(ssd.ftl)
    request = IoRequest(0.0, LPN, 1, IoOp.WRITE)
    ssd.run([request])
    assert request.error == f"cannot place write for lpn {LPN} — device full"
    assert ssd.ftl.stats.host_writes == ssd.ftl.geometry.num_planes + 1
