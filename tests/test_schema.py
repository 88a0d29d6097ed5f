"""TraceBus event-schema registry, DL201/DL202/DL203 rules, coverage smoke."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.obs import schema
from repro.obs.tracebus import BUS, TraceEvent

FIXTURE = Path(__file__).parent / "fixtures" / "schema_rules_fixture.py"

#: (line, col, code) for every violation planted in the fixture.
EXPECTED_FIXTURE_FINDINGS = [
    (12, 5, "DL201"),   # undeclared event flash/raed
    (13, 5, "DL201"),   # missing required key 'channel'
    (14, 5, "DL201"),   # undeclared key 'voltage'
    (15, 5, "DL201"),   # phase 'i' declared 'X'
    (16, 5, "DL201"),   # undeclared category 'telemetry'
    (20, 42, "DL202"),  # consumer matches undeclared name 'raed'
    (24, 12, "DL202"),  # consumer matches undeclared category
    (30, 16, "DL202"),  # consumer reads undeclared key 'voltage'
    (42, 36, "DL202"),  # trace_emit(category, name, ...) matches undeclared 'raed'
]


@pytest.fixture(autouse=True)
def _clean_bus():
    yield
    BUS.clear()


def event(category, name, args=None, ph="X"):
    return TraceEvent(category, name, 0.0, 1.0, args, None, ph)


# ---------------------------------------------------------------------------
# registry integrity


class TestRegistry:
    def test_every_entry_is_consistent(self):
        for (category, name), entry in schema.REGISTRY.items():
            assert entry.category == category
            assert entry.name == name
            assert entry.ph in ("X", "i", "C")
            assert entry.modules, f"{category}/{name} declares no emitting module"
            assert not set(entry.required) & set(entry.optional)

    def test_counters_are_counter_phase(self):
        for entry in schema.REGISTRY.values():
            assert (entry.category == "counter") == (entry.ph == "C")

    def test_allow_unobserved_entries_are_declared(self):
        for category, name in schema.ALLOW_UNOBSERVED:
            assert schema.lookup(category, name) is not None

    def test_lookup_and_wildcard(self):
        assert schema.lookup("flash", "read") is not None
        assert schema.lookup("flash", "raed") is None
        # The engine category declares a wildcard: any name matches.
        assert ("engine", schema.WILDCARD) in schema.REGISTRY
        assert schema.lookup("engine", "anything.qualname") is not None
        assert ("flash", schema.WILDCARD) not in schema.REGISTRY

    def test_names_in_and_payload_keys(self):
        assert "read" in schema.names_in("flash")
        assert schema.names_in("no-such-category") == frozenset()
        assert "plane" in schema.payload_keys(["flash"])
        assert "lpn" not in schema.payload_keys(["flash"])
        assert "lpn" in schema.payload_keys()


class TestValidateEvent:
    def test_clean_event(self):
        ok = event("flash", "read", {"plane": 0, "channel": 1})
        assert schema.validate_event(ok) == []

    def test_undeclared_event(self):
        problems = schema.validate_event(event("flash", "raed"))
        assert problems == ["undeclared event flash/raed"]

    def test_missing_and_undeclared_keys(self):
        bad = event("flash", "read", {"plane": 0, "voltage": 3})
        problems = schema.validate_event(bad)
        assert any("missing required key 'channel'" in p for p in problems)
        assert any("undeclared key 'voltage'" in p for p in problems)

    def test_optional_keys_are_accepted(self):
        ok = event("host", "read", {"lpn": 0, "pages": 1, "retries": 2})
        assert schema.validate_event(ok) == []

    def test_phase_mismatch(self):
        bad = event("flash", "read", {"plane": 0, "channel": 1}, ph="i")
        assert any("phase 'i'" in p for p in schema.validate_event(bad))


class TestCoverage:
    def full_observation(self):
        return set(schema.REGISTRY) - schema.ALLOW_UNOBSERVED

    def test_full_coverage_is_ok(self):
        report = schema.coverage(self.full_observation())
        assert report.ok
        assert report.missing == []
        assert report.undeclared == []
        assert sorted(report.allowed_missing) == sorted(schema.ALLOW_UNOBSERVED)

    def test_missing_event_fails(self):
        observed = self.full_observation() - {("flash", "read")}
        report = schema.coverage(observed)
        assert not report.ok
        assert report.missing == [("flash", "read")]

    def test_undeclared_event_fails(self):
        observed = self.full_observation() | {("flash", "raed")}
        report = schema.coverage(observed)
        assert not report.ok
        assert report.undeclared == [("flash", "raed")]

    def test_allow_listed_events_may_be_missing_or_present(self):
        report = schema.coverage(self.full_observation() | schema.ALLOW_UNOBSERVED)
        assert report.ok
        assert report.allowed_missing == []

    def test_wildcard_matches_any_name(self):
        observed = self.full_observation() | {("engine", "Controller._arrive")}
        report = schema.coverage(observed)
        assert report.ok


# ---------------------------------------------------------------------------
# DL201/DL202: the fixture plants one violation per failure mode


class TestSchemaRules:
    def test_fixture_findings_exactly(self):
        result = run_lint([str(FIXTURE)])
        got = [(f.line, f.col, f.code) for f in result.findings]
        assert got == EXPECTED_FIXTURE_FINDINGS
        assert result.exit_code == 1

    def test_select_restricts_to_one_rule(self):
        result = run_lint([str(FIXTURE)], select=["DL201"])
        assert {f.code for f in result.findings} == {"DL201"}
        result = run_lint([str(FIXTURE)], ignore=["DL201"])
        assert {f.code for f in result.findings} == {"DL202"}

    def test_pragma_suppresses_schema_finding(self, tmp_path):
        path = tmp_path / "repro" / "probe.py"
        path.parent.mkdir()
        path.write_text(textwrap.dedent("""\
            from repro.obs.tracebus import BUS

            def probe():
                BUS.emit("telemetry", "boot", 0.0, 0.0, None, None)  # dl: disable=DL201
        """))
        result = run_lint([str(path)])
        assert result.findings == []
        assert result.suppressed == 1

    def test_args_parameter_of_a_trace_emit_class_is_the_payload(self, tmp_path):
        path = tmp_path / "repro" / "probe.py"
        path.parent.mkdir()
        path.write_text(textwrap.dedent("""\
            class Probe:
                def trace_emit(self, category, name, ts_us, duration_us=0.0,
                               args=None, track=None, ph="X"):
                    if category == "flash":
                        return (args or {}).get("plane"), self.on_gc(args)

                def on_gc(self, args):
                    return args["voltage"]

            def unrelated(args):
                return args["voltage"]  # not a trace_emit class: not read
        """))
        result = run_lint([str(path)])
        assert [(f.line, f.code) for f in result.findings] == [(8, "DL202")]
        assert "'voltage'" in result.findings[0].message


# ---------------------------------------------------------------------------
# DL203: declared-but-never-consumed, gated on scanning every consumer module


def write_consumer_tree(root, consume_flash_read):
    """Stub files named like the real consumer modules (path => module)."""
    body = "def noop(event):\n    return None\n"
    if consume_flash_read:
        body = textwrap.dedent("""\
            def probe(event):
                if event.category == "flash" and event.name == "read":
                    return (event.args or {}).get("plane")
                return None
        """)
    # Consumer modules double as emitter modules (e.g. the sampler owns
    # the counter events); silence the "never emitted" DL201 findings
    # the empty stubs would otherwise provoke.
    filler = "# dl: disable-file=DL201\nX = 1\n"
    files = []
    for module in schema.CONSUMER_MODULES:
        path = root.joinpath(*module.split(".")).with_suffix(".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body if module.endswith("parallelism") else filler)
        files.append(str(path))
    return files


class TestUnconsumedNotes:
    def test_notes_fire_only_when_all_consumers_scanned(self, tmp_path):
        files = write_consumer_tree(tmp_path, consume_flash_read=True)
        result = run_lint(files)
        noted = {n.message for n in result.notes if n.code == "DL203"}
        # flash/read is consumed by the stub; flash/program is not.
        assert not any("flash/read " in m for m in noted)
        assert any("flash/program " in m for m in noted)
        # Notes are informational: they never affect the exit code.
        assert result.exit_code == 0

        partial = run_lint(files[:-1])
        assert [n for n in partial.notes if n.code == "DL203"] == []

    def test_export_only_events_are_not_noted(self, tmp_path):
        files = write_consumer_tree(tmp_path, consume_flash_read=False)
        result = run_lint(files)
        noted = {n.message for n in result.notes if n.code == "DL203"}
        # host/power_loss is export_only: Perfetto reads it, no code does.
        assert not any("power_loss" in m for m in noted)


# ---------------------------------------------------------------------------
# runtime round-trip: live traces match the registry


class TestCoverageSmoke:
    def test_single_scenario_emits_only_declared_valid_events(self):
        from repro.obs.smoke import run_coverage_smoke

        result = run_coverage_smoke(["dloop"])
        assert result.events > 0
        assert result.report.undeclared == []
        assert result.problems == []
        # The core scenario drives the flash path end to end.
        missing = set(result.report.missing)
        for name in ("read", "program", "erase", "timeline_reset"):
            assert ("flash", name) not in missing

    def test_unknown_scenario_rejected(self):
        from repro.obs.smoke import run_coverage_smoke

        with pytest.raises(ValueError, match="unknown scenarios"):
            run_coverage_smoke(["bogus"])

    def test_full_battery_round_trips_the_registry(self):
        from repro.obs.smoke import run_coverage_smoke

        result = run_coverage_smoke()
        assert result.ok, (result.report.missing, result.report.undeclared,
                           result.problems)
