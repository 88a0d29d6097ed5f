"""Crash-consistency torture engine: arm, ledger, oracle, campaigns.

Covers the three layers separately (TortureArm event arithmetic, the
AckLedger's acknowledgement semantics, the durability oracle's
predicates — including sabotage tests proving it is not vacuous) and
then end-to-end: sampled campaigns over every registered FTL must find
zero violations, identical campaigns must produce identical reports,
and the fault-path crash points (GC relocation drain, erase-fail →
force-retire window) must recover cleanly.
"""

import json
import os
import random

import numpy as np
import pytest

from repro.controller.device import SimulatedSSD
from repro.obs.tracebus import BUS
from repro.perf.fingerprint import ftl_fingerprint
from repro.sim.request import IoOp, IoRequest
from repro.torture import (
    AckLedger,
    CampaignConfig,
    TortureArm,
    TortureCampaign,
    TortureCrash,
    check_durability,
)
from repro.torture.arm import kind_of_event
from repro.torture.campaign import sample_points


def _write_workload(geometry, n, seed, *, trim_share=0.05):
    """Deterministic update-heavy traffic over a tight footprint."""
    rng = random.Random(seed)
    space = max(4, int(geometry.num_lpns * 0.55))
    requests, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(1 / 400.0)
        lpn = rng.randrange(space)
        count = min(rng.choice((1, 1, 2, 3)), geometry.num_lpns - lpn)
        op = IoOp.TRIM if rng.random() < trim_share else IoOp.WRITE
        requests.append(IoRequest(t, lpn, count, op))
    return requests


def _fresh(requests):
    return [
        IoRequest(r.arrival_us, r.start_lpn, r.page_count, r.op)
        for r in requests
    ]


# ---------------------------------------------------------------------------
# TortureArm
# ---------------------------------------------------------------------------


class TestArm:
    def _emit(self, category, name, n=1):
        for _ in range(n):
            BUS.emit(category, name, 0.0, 0.0, {}, None, "i")

    def test_counts_and_fires_at_exact_index(self):
        arm = TortureArm().attach(armed=("program", 2))
        try:
            self._emit("array", "program", 2)
            assert arm.fired is None
            assert arm.counts["program"] == 2
            with pytest.raises(TortureCrash) as exc:
                self._emit("array", "program")
            assert exc.value.kind == "program" and exc.value.index == 2
            assert arm.fired == ("program", 2)
            # disarmed after firing: further events only count
            self._emit("array", "program", 3)
            assert arm.counts["program"] == 6
        finally:
            arm.detach()

    def test_counting_only_and_kind_taxonomy(self):
        arm = TortureArm().attach()
        try:
            self._emit("array", "program")
            self._emit("array", "erase")
            self._emit("gc", "migrate")
            self._emit("fault", "relocate")
            self._emit("wb", "flush")
            self._emit("journal", "commit")
            self._emit("host", "io_begin")  # not a crash kind
        finally:
            arm.detach()
        assert arm.counts == {
            "program": 1, "erase": 1, "gc_step": 2,
            "wb_flush": 1, "journal_commit": 1,
        }

    def test_rearm_resets_counters(self):
        arm = TortureArm().attach(armed=("erase", 0))
        try:
            with pytest.raises(TortureCrash):
                self._emit("array", "erase")
            arm.rearm(("erase", 1))
            assert arm.counts["erase"] == 0
            self._emit("array", "erase")
            with pytest.raises(TortureCrash):
                self._emit("array", "erase")
        finally:
            arm.detach()

    def test_attach_twice_and_bad_kind_rejected(self):
        arm = TortureArm().attach()
        try:
            with pytest.raises(RuntimeError):
                arm.attach()
        finally:
            arm.detach()
        with pytest.raises(ValueError):
            TortureArm().attach(armed=("power_sag", 0))

    def test_detach_stops_counting(self):
        arm = TortureArm().attach()
        arm.detach()
        if BUS.enabled:
            self._emit("array", "program")
        assert arm.counts["program"] == 0


# ---------------------------------------------------------------------------
# AckLedger
# ---------------------------------------------------------------------------


class TestLedger:
    def _ssd(self, geometry):
        ssd = SimulatedSSD(geometry, ftl="dloop")
        ssd.ftl.array.enable_oob_generations()
        return ssd

    def test_write_ack_and_drop_inflight(self, small_geometry):
        ssd = self._ssd(small_geometry)
        ledger = AckLedger(ssd.ftl)
        req = IoRequest(0.0, 3, 2, IoOp.WRITE)
        ledger.issued(req)
        assert list(ssd.ftl.array.lpn_gen[3:5]) == [1, 1]
        assert ledger.acked_write_np[3] == -1  # not acknowledged yet
        ledger.completed(req)
        assert list(ledger.acked_write_np[3:5]) == [1, 1]
        # a second write issued but dropped at the crash stays unacked
        req2 = IoRequest(1.0, 3, 1, IoOp.WRITE)
        ledger.issued(req2)
        assert ssd.ftl.array.lpn_gen[3] == 2
        dropped = ledger.drop_inflight()
        assert dropped == [req2]
        assert ledger.acked_write_np[3] == 1

    def test_trim_snapshot_supersedes_writes(self, small_geometry):
        ssd = self._ssd(small_geometry)
        ledger = AckLedger(ssd.ftl)
        w = IoRequest(0.0, 7, 1, IoOp.WRITE)
        ledger.issued(w)
        ledger.completed(w)
        tr = IoRequest(1.0, 7, 1, IoOp.TRIM)
        ledger.issued(tr)
        # snapshot, no bump
        assert ssd.ftl.array.lpn_gen[7] == 1
        ledger.completed(tr)
        assert ledger.acked_trim_np[7] == 1
        assert ledger.acked_trim_np[7] >= ledger.acked_write_np[7]

    def test_error_completion_is_indeterminate(self, small_geometry):
        ssd = self._ssd(small_geometry)
        ledger = AckLedger(ssd.ftl)
        req = IoRequest(0.0, 1, 2, IoOp.WRITE)
        ledger.issued(req)
        req.error = "out of space"
        ledger.completed(req)
        assert ledger.acked_write_np[1] == -1
        assert {1, 2} <= ledger.indeterminate

    def test_requires_oob_generations(self, small_geometry):
        ssd = SimulatedSSD(small_geometry, ftl="dloop")
        with pytest.raises(RuntimeError):
            AckLedger(ssd.ftl)


# ---------------------------------------------------------------------------
# Durability oracle (with sabotage: the oracle must not be vacuous)
# ---------------------------------------------------------------------------


def _crashed_and_recovered(geometry, *, point=("program", 30), seed=42):
    """One manual crash replay: returns (ssd, ledger) post-recovery."""
    ssd = SimulatedSSD(geometry, ftl="dloop", sanitize=True)
    ssd.ftl.array.enable_oob_generations()
    ssd.precondition(0.7)
    ledger = AckLedger(ssd.ftl)
    ledger.baseline()
    ledger.attach_bus()
    ssd.controller.ledger = ledger
    ssd.controller.on_complete.append(ledger.completed)
    arm = TortureArm().attach(armed=point)
    try:
        with pytest.raises(TortureCrash):
            ssd.run(_write_workload(geometry, 400, seed))
    finally:
        arm.detach()
        ledger.detach()
        ssd.controller.ledger = None
        if ssd.sanitizer is not None:
            ssd.sanitizer.detach()
    ledger.drop_inflight()
    ssd.crash()
    return ssd, ledger


class TestOracle:
    def test_clean_recovery_has_no_violations(self, small_geometry):
        ssd, ledger = _crashed_and_recovered(small_geometry)
        verdict = check_durability(ssd.ftl, ledger)
        assert verdict.ok
        assert verdict.checked == ledger.num_lpns

    def test_unmapping_an_acked_lpn_is_stale_or_lost(self, small_geometry):
        ssd, ledger = _crashed_and_recovered(small_geometry)
        pt = np.asarray(ssd.ftl.page_table_np)
        victims = np.flatnonzero((ledger.acked_write_np >= 0) & (pt >= 0))
        victim = int(victims[0])
        ssd.ftl.page_table[victim] = -1
        verdict = check_durability(ssd.ftl, ledger)
        assert [(v.kind, v.lpn) for v in verdict.violations] == \
            [("stale_or_lost", victim)]

    def test_future_generation_is_fabrication(self, small_geometry):
        ssd, ledger = _crashed_and_recovered(small_geometry)
        pt = np.asarray(ssd.ftl.page_table_np)
        victim = int(np.flatnonzero(pt >= 0)[0])
        array = ssd.ftl.array
        array.page_gen[pt[victim]] = int(array.lpn_gen[victim]) + 5
        verdict = check_durability(ssd.ftl, ledger)
        assert verdict.violations[0].kind == "fabrication"
        assert verdict.violations[0].lpn == victim

    def test_resurrection_and_indeterminate_excuse(self, small_geometry):
        ssd, ledger = _crashed_and_recovered(small_geometry)
        pt = np.asarray(ssd.ftl.page_table_np)
        victim = int(np.flatnonzero(pt >= 0)[0])
        mapped_gen = int(ssd.ftl.array.page_gen[pt[victim]])
        # pretend a trim at (or above) the surviving content was acked
        ledger.acked_trim_np[victim] = max(
            mapped_gen, int(ledger.acked_write_np[victim])
        )
        verdict = check_durability(ssd.ftl, ledger)
        assert any(
            v.kind == "resurrected" and v.lpn == victim
            for v in verdict.violations
        )
        # an error-status (partially applied) trim excuses it
        ledger.indeterminate.add(victim)
        verdict = check_durability(ssd.ftl, ledger)
        assert not any(v.lpn == victim for v in verdict.violations)
        assert ("resurrected", victim, "indeterminate") in verdict.excused

    def test_buffered_at_crash_excuses_lost_write(self, small_geometry):
        ssd, ledger = _crashed_and_recovered(small_geometry)
        pt = np.asarray(ssd.ftl.page_table_np)
        victims = np.flatnonzero((ledger.acked_write_np >= 0) & (pt >= 0))
        victim = int(victims[0])
        ssd.ftl.page_table[victim] = -1
        verdict = check_durability(ssd.ftl, ledger, buffered_at_crash=[victim])
        assert verdict.ok
        assert ("stale_or_lost", victim, "buffered_at_crash") in verdict.excused


# ---------------------------------------------------------------------------
# Point sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_deterministic_subset(self):
        points = [("program", i) for i in range(100)]
        a = sample_points(points, 10, seed=7)
        b = sample_points(points, 10, seed=7)
        assert a == b
        assert len(a) == 10
        assert len(set(a)) == 10
        assert set(a) <= set(points)
        assert sample_points(points, 10, seed=8) != a

    def test_within_budget_returns_all(self):
        points = [("erase", i) for i in range(5)]
        assert sample_points(points, 10, seed=1) == points


# ---------------------------------------------------------------------------
# Campaigns end to end
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_all_ftls_zero_violations(self):
        campaign = TortureCampaign(CampaignConfig(
            num_requests=10, budget=4,
        ))
        report = campaign.run()
        assert len(report["cells"]) == 4
        assert report["total_violations"] == 0
        assert report["ranking"] == []
        for cell in report["cells"]:
            assert cell["unreached"] == 0
            assert cell["points_run"] == 4
            assert cell["sampled"]

    def test_identical_campaigns_identical_reports(self):
        config = CampaignConfig(ftls=("dloop",), num_requests=8, budget=4)
        canonical = [
            json.dumps(TortureCampaign(config).run(),
                       sort_keys=True, separators=(",", ":"))
            for _ in range(2)
        ]
        assert canonical[0] == canonical[1]

    def test_double_crash_on_fast(self):
        # FAST's recovery erases reclaimed journal/log blocks, so the
        # second cut really lands mid-recovery.
        campaign = TortureCampaign(CampaignConfig(
            ftls=("fast",), num_requests=10,
        ))
        cell = campaign.cells()[0]
        result = campaign.run_point(cell, ("program", 20), double=True)
        assert result.fired
        assert result.double
        assert not result.violations

    def test_write_buffer_cell(self):
        campaign = TortureCampaign(CampaignConfig(
            ftls=("dloop",), num_requests=10, budget=3, write_buffer_pages=4,
        ))
        cell = campaign.cells()[0]
        base = campaign._base_requests(cell)
        counts, _ = campaign.discover(cell, base)
        assert counts["wb_flush"] >= 1
        report = campaign.run_cell(cell)
        assert report["violations_total"] == 0

    def test_streaming_cell(self):
        campaign = TortureCampaign(CampaignConfig(
            ftls=("dloop",), num_requests=10, budget=3, queue_depth=2,
        ))
        report = campaign.run_cell(campaign.cells()[0])
        assert report["violations_total"] == 0
        assert report["unreached"] == 0

    def test_fault_plan_cell(self):
        campaign = TortureCampaign(CampaignConfig(
            ftls=("dloop",), fault_plans=("moderate",),
            num_requests=10, budget=3,
        ))
        report = campaign.run_cell(campaign.cells()[0])
        assert report["violations_total"] == 0

    def test_repro_command_round_trips_flags(self):
        campaign = TortureCampaign(CampaignConfig(
            ftls=("dftl",), fault_plans=("moderate",), num_requests=12,
            double=True, write_buffer_pages=8, queue_depth=4,
        ))
        cell = campaign.cells()[0]
        command = campaign.repro_command(cell, ("gc_step", 3), double=True)
        for token in ("--ftls dftl", "--faults moderate", "--double",
                      "--point gc_step:3", "--write-buffer 8",
                      "--queue-depth 4", "--requests 12"):
            assert token in command


# ---------------------------------------------------------------------------
# Satellite: armed crash points against the recorded layered reference
# ---------------------------------------------------------------------------


class TestKernelInteraction:
    def test_kernel_armed_crash_equivalence(self, small_geometry):
        """Crash-point counts, fingerprints and the recovered state of an
        armed DLOOP replay, pinned to the values the layered reference
        path produced at the last commit that carried it (recorded in
        ``fixtures/replay_sweep_fingerprints.json``)."""
        fixture = os.path.join(
            os.path.dirname(__file__), "fixtures", "replay_sweep_fingerprints.json"
        )
        with open(fixture, "r", encoding="utf-8") as fh:
            golden = json.load(fh)["torture_armed_crash"]
        workload = _write_workload(small_geometry, 300, seed=5)

        def build():
            ssd = SimulatedSSD(small_geometry, ftl="dloop")
            ssd.precondition(0.7)
            return ssd

        ssd = build()
        arm = TortureArm().attach(armed=None)
        try:
            ssd.run(_fresh(workload))
        finally:
            arm.detach()
        assert dict(arm.counts) == golden["counts"]
        assert ftl_fingerprint(ssd.ftl, ssd.engine.now) == golden["fingerprint"]

        ssd = build()
        arm = TortureArm().attach(armed=("program", 50))
        try:
            with pytest.raises(TortureCrash):
                ssd.run(_fresh(workload))
        finally:
            arm.detach()
        summary = ssd.crash()
        assert summary["recovered_mappings"] == golden["recovered_mappings"]
        assert ftl_fingerprint(ssd.ftl, ssd.engine.now) == golden["recovered_fingerprint"]


# ---------------------------------------------------------------------------
# Satellite: fault-path crash points
# ---------------------------------------------------------------------------


def _fault_geometry():
    from repro.flash.geometry import SSDGeometry

    # Extra spare blocks so retirement never exhausts the free pool.
    return SSDGeometry(
        channels=2,
        packages_per_channel=1,
        chips_per_package=1,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=24,
        pages_per_block=8,
        page_size=256,
        extra_blocks_percent=60.0,
    )


def _fault_ssd(faults):
    geometry = _fault_geometry()
    ssd = SimulatedSSD(geometry, ftl="dloop", faults=dict(faults))
    ssd.ftl.array.enable_oob_generations()
    ssd.precondition(0.5)
    return ssd


def _discover_events(faults, workload):
    """Replay once (scalar path) and return the raw event list."""
    ssd = _fault_ssd(faults)
    arm = TortureArm().attach(armed=None)
    events = []
    try:
        BUS.subscribe(events.append)
        try:
            ssd.run(_fresh(workload))
        finally:
            BUS.unsubscribe(events.append)
    finally:
        arm.detach()
    return events


def _point_after(events, predicate):
    """First crash point at or after the first event matching ``predicate``."""
    counts = {kind: 0 for kind in
              ("program", "erase", "gc_step", "wb_flush", "journal_commit")}
    seen_marker = False
    for event in events:
        if not seen_marker and predicate(event):
            seen_marker = True
        kind = kind_of_event(event)
        if kind is None:
            continue
        if seen_marker:
            return (kind, counts[kind])
        counts[kind] += 1
    return None


def _replay_fault_point(faults, workload, point):
    ssd = _fault_ssd(faults)
    ledger = AckLedger(ssd.ftl)
    ledger.baseline()
    ledger.attach_bus()
    ssd.controller.ledger = ledger
    ssd.controller.on_complete.append(ledger.completed)
    arm = TortureArm().attach(armed=point)
    try:
        with pytest.raises(TortureCrash):
            ssd.run(_fresh(workload))
    finally:
        arm.detach()
        ledger.detach()
        ssd.controller.ledger = None
    ledger.drop_inflight()
    ssd.crash()
    verdict = check_durability(ssd.ftl, ledger)
    ssd.ftl.verify_integrity()
    return ssd, verdict


class TestFaultPathCrashPoints:
    PROGRAM_FAULTS = {
        "seed": 7,
        "program_fail_rate": 0.02,
        "program_fails_to_retire": 1,
    }
    ERASE_FAULTS = {"seed": 7, "erase_fail_rate": 0.05}

    def test_crash_during_gc_relocation_drain(self):
        """Power fails on a fault-path relocation (a live page being
        moved off a block pending retirement): recovery must keep every
        acknowledged write and leave a coherent device."""
        workload = _write_workload(
            _fault_geometry(), 600, seed=23, trim_share=0.0
        )
        events = _discover_events(self.PROGRAM_FAULTS, workload)
        relocations = [
            e for e in events
            if e.category == "fault" and e.name == "relocate"
        ]
        assert relocations, "fault plan produced no relocations"
        point = _point_after(
            events, lambda e: e.category == "fault" and e.name == "relocate"
        )
        assert point is not None and point[0] == "gc_step"
        ssd, verdict = _replay_fault_point(
            self.PROGRAM_FAULTS, workload, point
        )
        assert verdict.ok, [v.as_dict() for v in verdict.violations]
        # pending retirements were volatile; nothing may stay queued
        assert not ssd.ftl.faults.pending_retirements
        assert not ssd.ftl.array.force_retire

    def test_crash_between_erase_fail_and_force_retire(self):
        """Power fails after an erase failure marked the block for
        forced retirement but before the retirement happened: the mark
        lived in controller RAM, so recovery reverts the block to a
        normal one and the device stays fully usable."""
        workload = _write_workload(
            _fault_geometry(), 600, seed=24, trim_share=0.0
        )
        events = _discover_events(self.ERASE_FAULTS, workload)
        fails = [
            e for e in events
            if e.category == "fault" and e.name == "erase_fail"
        ]
        assert fails, "fault plan produced no erase failures"
        point = _point_after(
            events, lambda e: e.category == "fault" and e.name == "erase_fail"
        )
        assert point is not None
        ssd, verdict = _replay_fault_point(self.ERASE_FAULTS, workload, point)
        assert verdict.ok, [v.as_dict() for v in verdict.violations]
        assert not ssd.ftl.array.force_retire
        # the recovered device still serves writes over the whole space
        now = ssd.engine.now
        ssd.run([
            IoRequest(now + r.arrival_us, r.start_lpn, r.page_count, r.op)
            for r in _write_workload(ssd.geometry, 100, seed=25, trim_share=0.0)
        ])
        ssd.ftl.verify_integrity()


# ---------------------------------------------------------------------------
# Satellite: streaming crash support
# ---------------------------------------------------------------------------


class TestStreamingCrash:
    def test_run_with_crash_mid_stream(self, small_geometry):
        ssd = SimulatedSSD(small_geometry, ftl="dloop")
        ssd.precondition(0.6)
        requests = _write_workload(small_geometry, 300, seed=31, trim_share=0.0)
        half = len(requests) // 2
        crash_at = requests[half].arrival_us
        summary, rest = ssd.run_with_crash(
            _fresh(requests), crash_at, queue_depth=4
        )
        # admission state is volatile: fully reset by the crash
        assert ssd.controller._stream is None
        assert ssd.controller._stream_window == 0
        assert not ssd.controller._stream_deferred
        assert summary["recovered_mappings"] > 0
        # the un-admitted rest, from the first request at or after the
        # crash on, comes back to the caller and replays fine
        remaining = list(rest)
        assert [r.arrival_us for r in remaining[-half:]] == [
            r.arrival_us for r in requests[half:]]
        before = ssd.stats.count
        ssd.run_stream(iter(remaining))
        assert ssd.stats.count == before + len(remaining)
        ssd.ftl.verify_integrity()

    def test_runner_streams_through_crash(self, small_geometry):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_simulation
        from repro.traces.model import KB, SizeMix, WorkloadSpec
        from repro.traces.synthetic import generate

        spec = WorkloadSpec(
            name="stream-crash",
            num_requests=400,
            write_fraction=0.8,
            request_rate_per_s=10_000.0,
            size_mix=SizeMix((256, 512), (0.7, 0.3)),
            footprint_bytes=int(small_geometry.capacity_bytes * 0.5),
            zipf_theta=0.9,
            chunk_bytes=1 * KB,
            align_bytes=256,
            seed=33,
        )
        config = ExperimentConfig(
            geometry=small_geometry, ftl="dloop", precondition_fill=0.5
        )
        result = run_simulation(
            generate(spec), config, queue_depth=4, crash_at_us=15_000.0,
        )
        crash = result.extras["crash"]
        assert crash["at_us"] == 15_000.0
        assert crash["recovered_mappings"] > 0
        assert result.num_requests > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_sweep_json_and_exit_code(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "torture.json"
        rc = main([
            "torture", "--ftls", "dloop", "--workloads", "build",
            "--requests", "8", "--budget", "3", "--json", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["total_violations"] == 0
        assert report["cells"][0]["cell"] == "torture|dloop|build|none"

    def test_point_repro_mode(self, capsys):
        from repro.cli import main

        rc = main([
            "torture", "--ftls", "dloop", "--workloads", "build",
            "--requests", "8", "--point", "program:10",
        ])
        assert rc == 0
        assert "torture|dloop|build|none @ program:10: ok" \
            in capsys.readouterr().out

    def test_bad_point_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["torture", "--point", "meteor:1"])
