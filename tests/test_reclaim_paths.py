"""Golden cells for the reclamation paths no other golden reaches.

``replay_sweep_fingerprints.json["reclaim_paths"]`` was recorded at the
last commit that wrote the relocate-and-erase procedure out once per
FTL: small seeded runs, driven straight through the FTL interface (so
the logical outcome cannot depend on simulated time), that provably
take an **emergency pass**, a **mid-pass overflow** (copy-back and
controller-copy mode), a **runtime block retirement**, FAST's
partial/full/shifted-close **merge mix**, and the BAST/LAST merge
loops.  Each cell pins the determinism fingerprint,
every ``GcStats`` counter and the FTL's own merge statistics.

The cells must not go vacuous: ``test_recorded_cells_take_their_paths``
asserts on the *recorded* values that each cell takes the path it is
named after.  The tests below it pin what the per-FTL copies of the
loop got wrong (each fails at the recording commit).

``replay_sweep_fingerprints.json["merge_event_streams"]`` pins, for the
cells whose pages move through the controller (the hybrids' merges and
``_collect``'s controller branch), the whole TraceBus stream — every
event, in emission order — with OOB generations disarmed and armed.  It
was recorded at the last commit whose log-block gather loop called
``FlashArray`` and ``FlashTimekeeper.read_page``/``program_page`` per
page, so a flattened loop must emit the same events in the same order.
"""

from __future__ import annotations

import json
import os
import random
import zlib
from collections import Counter
from dataclasses import asdict
from functools import lru_cache

import pytest

from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.ftl.base import OutOfSpaceError
from repro.ftl.registry import create_ftl
from repro.obs.tracebus import BUS
from repro.perf.fingerprint import ftl_fingerprint

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "replay_sweep_fingerprints.json")


def _geometry(blocks_per_plane: int = 8, pages_per_block: int = 4,
              extra: float = 10.0) -> SSDGeometry:
    return SSDGeometry(
        channels=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        page_size=512,
        extra_blocks_percent=extra,
    )


#: A device cornered on purpose: 10 % spare blocks, a 16-entry CMT and
#: updates over most of the logical space, so planes run dry mid-pass.
CORNERED = dict(geometry=_geometry(), fill=0.8, space=0.6, ops=400)
#: Roomy enough that GC stays ordinary; the retirement is the event.
ROOMY = dict(geometry=_geometry(16, 8, 25.0), fill=0.6, space=0.5, ops=500)


def _program_faults(rate: float, fails_to_retire: int = 1) -> dict:
    """Program failures that queue blocks for runtime retirement."""
    return dict(seed=5, program_fail_rate=rate, erase_fail_rate=0.002,
                program_fails_to_retire=fails_to_retire)


CELLS = {
    # (i) emergency passes and (ii) mid-pass overflows
    "dloop/cornered": dict(CORNERED, ftl="dloop", kwargs=dict(cmt_entries=16, gc_threshold=3)),
    "dloop-nocb/cornered": dict(CORNERED, ftl="dloop",
                                kwargs=dict(cmt_entries=16, gc_threshold=3, use_copyback=False)),
    "dloop-hc/cornered": dict(CORNERED, ftl="dloop-hc",
                              kwargs=dict(cmt_entries=16, gc_threshold=3)),
    "dftl/cornered": dict(CORNERED, ftl="dftl", kwargs=dict(cmt_entries=16, gc_threshold=3)),
    "pagemap-lpn/cornered": dict(CORNERED, ftl="pagemap", kwargs=dict(gc_threshold=3)),
    "pagemap-lpn-nocb/cornered": dict(CORNERED, ftl="pagemap",
                                      kwargs=dict(gc_threshold=3, use_copyback=False)),
    "pagemap-roaming/cornered": dict(CORNERED, ftl="pagemap",
                                     kwargs=dict(gc_threshold=3, striping="roaming")),
    # With the feasibility bound lifted (what an FTL that does not define
    # ``_gc_max_valid`` gets) a victim can outgrow its plane mid-pass in
    # controller-copy mode too.
    "dloop-nocb/unbounded": dict(CORNERED, ftl="dloop", unbounded=True,
                                 kwargs=dict(cmt_entries=16, gc_threshold=3,
                                             use_copyback=False)),
    # (iii) runtime block retirement: an external bad-block scan ...
    "dloop/retire": dict(ROOMY, ftl="dloop", kwargs=dict(cmt_entries=32), retire_at=(150, 300)),
    "dloop-nocb/retire": dict(ROOMY, ftl="dloop",
                              kwargs=dict(cmt_entries=32, use_copyback=False),
                              retire_at=(150, 300)),
    "dloop-hc/retire": dict(ROOMY, ftl="dloop-hc", kwargs=dict(cmt_entries=32),
                            retire_at=(150, 300)),
    "dftl/retire": dict(ROOMY, ftl="dftl", kwargs=dict(cmt_entries=32), retire_at=(150, 300)),
    "pagemap-lpn/retire": dict(ROOMY, ftl="pagemap", kwargs={}, retire_at=(150, 300)),
    "pagemap-roaming/retire": dict(ROOMY, ftl="pagemap", kwargs=dict(striping="roaming"),
                                   retire_at=(150, 300)),
    "fast/retire": dict(ROOMY, ftl="fast", kwargs={}, retire_at=(150, 300)),
    # ... and repeated program failures draining through the fault queue
    "dloop/program-faults": dict(ROOMY, ftl="dloop", kwargs=dict(cmt_entries=32),
                                 faults=_program_faults(0.001)),
    "dftl/program-faults": dict(ROOMY, ftl="dftl", kwargs=dict(cmt_entries=32),
                                faults=_program_faults(0.01)),
    # FAST's merges: partial + full, and shifted closes under faults
    "fast/merge-mix": dict(ROOMY, ftl="fast", kwargs={}, sequential=0.25),
    "fast/shifted-close": dict(ROOMY, ftl="fast", kwargs={}, sequential=0.25,
                               faults=_program_faults(0.03, fails_to_retire=3)),
    # the other hybrids' merge loops
    "bast/merges": dict(ROOMY, ftl="bast", kwargs={}, sequential=0.3),
    "last/merges": dict(ROOMY, ftl="last", kwargs={}, sequential=0.3),
}

#: The FTL-specific statistics object each hybrid keeps.
_EXTRA_STATS = {"fast": "fast_stats", "bast": "bast_stats", "last": "last_stats"}


def _retirement_target(ftl) -> int:
    """The allocated block with the most valid pages that no write point
    is filling (lowest id on ties) — a deterministic stand-in for the
    block a bad-block scan condemns."""
    array = ftl.array
    try:
        active = set().union(*(ftl._gc_exclude(p) for p in range(ftl.geometry.num_planes)))
    except NotImplementedError:
        active = set()  # the hybrids keep no write-point allocators
    best, best_valid = -1, 0
    for block in range(ftl.geometry.num_physical_blocks):
        if array.is_block_free(block) or array.is_block_bad(block) or block in active:
            continue
        if array.block_valid[block] > best_valid:
            best, best_valid = block, int(array.block_valid[block])
    assert best != -1
    return best


def observe(cell: dict, instrument=None) -> dict:
    """Run one cell; returns everything the fixture pins.

    ``instrument(ftl)`` lets a test hang extra spies on the FTL before
    the first flash operation.
    """
    geometry = cell["geometry"]
    ftl = create_ftl(cell["ftl"], geometry, TimingParams(), **cell["kwargs"])
    if instrument is not None:
        instrument(ftl)
    if cell.get("faults"):
        ftl.attach_faults(FaultInjector(ftl.array, ftl.clock,
                                        FaultPlan(FaultConfig(**cell["faults"]))))
    if cell.get("unbounded"):
        ftl._gc_max_valid = lambda plane: None
    ftl.bulk_fill(int(geometry.num_lpns * cell["fill"]))

    # Which moves were a mid-pass overflow?  A subscriber follows the
    # pass boundaries (and whether the pass is an emergency one); a spy
    # on the "anywhere with space" allocation counts the calls made
    # inside an ordinary pass.
    state = {"emergency": None, "overflow_moves": 0, "migrate_events": 0}

    def subscriber(event) -> None:
        if event.category == "gc":
            if event.name == "victim_selected":
                state["emergency"] = event.args["emergency"]
            elif event.name == "gc_pass":
                state["emergency"] = None
            elif event.name == "migrate":
                state["migrate_events"] += 1

    alloc_any = ftl._gc_alloc_any

    def spy(owner):
        if state["emergency"] is False:
            state["overflow_moves"] += 1
        return alloc_any(owner)

    ftl._gc_alloc_any = spy

    rng = random.Random(cell.get("seed", 0xD100))
    ppb = geometry.pages_per_block
    space = max(1, int(geometry.num_lpns * cell["space"]))
    sequential = cell.get("sequential", 0.0)
    retire_at = cell.get("retire_at", ())
    t = 0.0
    enospc = 0
    run_left = 0
    lpn = 0
    BUS.subscribe(subscriber)
    try:
        for i in range(cell["ops"]):
            if i in retire_at:
                t = ftl.retire_block_now(_retirement_target(ftl), t)
            if run_left:
                # continue a sequential stream (the hybrids' SW logs)
                run_left -= 1
                lpn = (lpn + 1) % space
                op = 0.0
            else:
                op = rng.random()
                if rng.random() < sequential:
                    lpn = rng.randrange(space // ppb) * ppb
                    run_left = rng.randrange(1, ppb)
                    op = 0.0
                else:
                    lpn = rng.randrange(space)
            try:
                if op < 0.85:
                    t = ftl.write_page(lpn, t)
                elif op < 0.95:
                    t = ftl.read_page(lpn, t)
                else:
                    t = ftl.trim_page(lpn, t)
            except OutOfSpaceError:
                enospc += 1
            t = ftl.drain_retirements(t)
    finally:
        BUS.unsubscribe(subscriber)
    ftl.verify_integrity()

    gc = asdict(ftl.gc_stats)
    gc["busy_us"] = repr(gc["busy_us"])
    observed = {
        "fingerprint": ftl_fingerprint(ftl, t),
        "gc": gc,
        "overflow_moves": state["overflow_moves"],
        "migrate_events": state["migrate_events"],
        "bad_blocks": int(ftl.array.bad_block_count()),
        "enospc": enospc,
    }
    if hasattr(ftl, "tm"):
        observed["gc_batched_updates"] = ftl.tm.stats.gc_batched_updates
    extra = _EXTRA_STATS.get(cell["ftl"])
    if extra is not None:
        observed["ftl_stats"] = asdict(getattr(ftl, extra))
    if ftl.faults is not None:
        stats = ftl.faults.stats
        observed["faults"] = {"program_failures": stats.program_failures,
                              "erase_failures": stats.erase_failures,
                              "relocated_pages": stats.relocated_pages,
                              "blocks_retired": stats.blocks_retired}
    return observed


@lru_cache(maxsize=None)
def _golden(section: str = "reclaim_paths") -> dict:
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)[section]


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_reclaim_path_cell(cell_id):
    assert observe(CELLS[cell_id]) == _golden()[cell_id]


def test_recorded_cells_take_their_paths():
    golden = _golden()
    assert sorted(golden) == sorted(CELLS)
    for cell_id, cell in golden.items():
        assert cell["enospc"] == 0, cell_id  # end of life is test_endoflife's job
        assert cell["gc"]["controller_moves"] + cell["gc"]["copyback_moves"] > 0, cell_id
    for cell_id in ("dloop/cornered", "dloop-nocb/cornered", "dloop-hc/cornered",
                    "dftl/cornered", "pagemap-lpn/cornered"):
        assert golden[cell_id]["gc"]["emergency_passes"] > 0, cell_id
        assert golden[cell_id]["gc"]["controller_moves"] > 0, cell_id
    for cell_id in ("dloop/cornered", "dloop-hc/cornered", "dloop-nocb/unbounded"):
        assert golden[cell_id]["overflow_moves"] > 0, cell_id
    for cell_id in golden:
        if cell_id.endswith("/retire"):
            assert golden[cell_id]["bad_blocks"] == 2, cell_id
            assert golden[cell_id]["gc"]["controller_moves"] > 0, cell_id
        if "faults" in golden[cell_id] and not cell_id.startswith("fast/"):
            assert golden[cell_id]["faults"]["blocks_retired"] > 0, cell_id
            assert golden[cell_id]["faults"]["relocated_pages"] > 0, cell_id
    fast = golden["fast/merge-mix"]["ftl_stats"]
    assert fast["switch_merges"] and fast["partial_merges"] and fast["full_merges"]
    assert golden["fast/shifted-close"]["ftl_stats"]["shifted_closes"] > 0
    assert golden["bast/merges"]["ftl_stats"]["full_merges"] > 0
    assert golden["last/merges"]["ftl_stats"]["partial_merges"] > 0
    assert golden["last/merges"]["ftl_stats"]["full_merges"] > 0


# ---- a fruitless pass ends the GC invocation -----------------------------------------

#: Fruitless ``_gc_pass`` calls (no feasible victim, plane not cornered)
#: over the whole cell: one per invocation that meets one, where the
#: recording commit repeated each until the pass budget ran out.
FRUITLESS_PASSES = {"dftl/cornered": 1236, "dloop/cornered": 727,
                    "pagemap-roaming/cornered": 696}


@pytest.mark.parametrize("cell_id", sorted(FRUITLESS_PASSES))
def test_a_fruitless_pass_ends_the_invocation(cell_id):
    fruitless = Counter()

    def instrument(ftl) -> None:
        gc_pass = ftl._gc_pass

        def spy(plane, now):
            before = ftl.gc_stats.passes
            t = gc_pass(plane, now)
            if ftl.gc_stats.passes == before:
                assert t == now
                fruitless[ftl.gc_stats.invocations] += 1
            return t

        ftl._gc_pass = spy

    assert observe(CELLS[cell_id], instrument) == _golden()[cell_id]
    assert max(fruitless.values()) == 1
    assert sum(fruitless.values()) == FRUITLESS_PASSES[cell_id]


# ---- the event stream of a controller copy ----------------------------------------

#: Cells whose relocations go through ``inter_plane_copy``: the log-block
#: family's gather/append loops and ``_collect``'s controller branch.
MERGE_STREAM_CELLS = ("fast/merge-mix", "fast/shifted-close", "bast/merges", "last/merges",
                      "dftl/cornered", "dloop-nocb/cornered")


def _arm_generations(ftl) -> None:
    """Arm OOB generations and issue a new one per host write, as the
    torture ledger does, so every ``array/program`` event carries a
    ``gen`` that tells a host write from a relocated copy."""
    ftl.array.enable_oob_generations()
    lpn_gen = ftl.array.lpn_gen
    write_page = ftl.write_page

    def stamped_write(lpn, start):
        if 0 <= lpn < len(lpn_gen):
            lpn_gen[lpn] += 1
        return write_page(lpn, start)

    ftl.write_page = stamped_write


def event_stream_crc(events) -> dict:
    """Event count and CRC32 of a TraceBus stream, in emission order."""
    crc = 0
    for event in events:
        record = (event.category, event.name, event.ts_us, event.duration_us,
                  sorted((event.args or {}).items()))
        crc = zlib.crc32(repr(record).encode(), crc)
    return {"events": len(events), "crc32": crc}


def merge_event_stream(cell_id: str, armed: bool) -> dict:
    """Event count and CRC32 of a cell's whole TraceBus stream."""
    with BUS.capture() as events:
        observe(CELLS[cell_id], _arm_generations if armed else None)
    return event_stream_crc(events)


@pytest.mark.parametrize("armed", (False, True), ids=("disarmed", "armed"))
@pytest.mark.parametrize("cell_id", MERGE_STREAM_CELLS)
def test_merge_event_stream(cell_id, armed):
    key = f"{cell_id}|{'armed' if armed else 'disarmed'}"
    assert merge_event_stream(cell_id, armed) == _golden("merge_event_streams")[key]


# ---- what the copies hid -------------------------------------------------------


def test_emergency_moves_are_traced_and_counted():
    # Every relocated page is a gc/migrate event (what the Chrome trace
    # and the torture arm's gc_step crash points see), and every batched
    # translation update GC paid for is in GcStats — emergency passes
    # included.
    observed = observe(CELLS["dloop/cornered"])
    assert observed["gc"]["emergency_passes"] > 0
    assert observed["migrate_events"] == observed["gc"]["moved_pages"]
    assert observed["gc"]["translation_updates"] == observed["gc_batched_updates"]


def test_overflow_copy_is_charged_to_the_plane_it_lands_on():
    # A controller copy that spills to another plane occupies *that*
    # plane and its channel, whether or not the FTL uses copy-back.
    charged = []

    def instrument(ftl) -> None:
        inter_plane_copy = ftl.clock.inter_plane_copy

        def spy(src_plane, dst_plane, start):
            charged.append(dst_plane)
            return inter_plane_copy(src_plane, dst_plane, start)

        ftl.clock.inter_plane_copy = spy

    pages_per_plane = CORNERED["geometry"].pages_per_plane
    spilled = 0
    with BUS.capture() as events:
        observed = observe(CELLS["dloop-nocb/unbounded"], instrument)
    assert observed["overflow_moves"] > 0
    migrations = [e for e in events if e.category == "gc" and e.name == "migrate"]
    assert len(migrations) == len(charged)
    for event, dst_plane in zip(migrations, charged):
        landed = event.args["to_ppn"] // pages_per_plane
        spilled += landed != event.args["plane"]
        assert dst_plane == landed
    assert spilled > 0


# The test below arms OOB generations so that every page written so
# far holds content generation 1 while generation 2 of every LPN has
# been *issued* (and sits, say, in a DRAM write buffer) but not
# programmed: a relocated copy must keep 1.


def test_wear_leveler_preserves_content_generations(timing):
    from repro.ftl.pagemap import PageMapFtl
    from repro.ftl.wearlevel import StaticWearLeveler

    geometry = _geometry(16, 8, 25.0)
    ftl = PageMapFtl(geometry, timing)
    array = ftl.array
    array.enable_oob_generations()
    count = int(geometry.num_lpns * 0.7)
    array.lpn_gen_np[:count] = 1
    t = 0.0
    for lpn in range(count):
        t = ftl.write_page(lpn, t)
    array.lpn_gen_np[:count] = 2
    placed = [ftl.current_ppn(lpn) for lpn in range(count)]
    leveler = StaticWearLeveler(ftl, gap_threshold=3, check_interval_erases=4)
    hot = [lpn for lpn in range(count) if lpn % geometry.num_planes == 0][:24]
    rng = random.Random(51)
    while leveler.stats.moved_pages < 16:
        t = ftl.write_page(rng.choice(hot), t)
        t = leveler.maybe_level(t)
    cold = [lpn for lpn in range(count) if lpn not in hot]
    assert any(ftl.current_ppn(lpn) != placed[lpn] for lpn in cold), "nothing was relocated"
    assert {array.read_gen(ftl.current_ppn(lpn)) for lpn in cold} == {1}
