"""Command-line interface end-to-end."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["simulate", "--ftl", "fast"])
    assert args.command == "simulate"
    assert args.ftl == "fast"


def test_simulate_prints_metrics(capsys):
    code = main([
        "simulate", "--ftl", "dloop", "--capacity-mb", "32",
        "--requests", "400", "--precondition", "0.5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "mean response (ms)" in out
    assert "dloop on financial1" in out


def test_simulate_crash_under_a_bounded_queue_depth(capsys):
    """``--queue-depth`` composes with ``--crash-at-ms`` on any run, and
    every run prints its admission rows."""
    code = main([
        "simulate", "--ftl", "dloop", "--capacity-mb", "16",
        "--requests", "300", "--precondition", "0.5",
        "--queue-depth", "4", "--crash-at-ms", "40",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "stream: peak_outstanding" in out
    assert "crash: dropped_events" in out


def test_simulate_saves_json(tmp_path, capsys):
    out_file = str(tmp_path / "result.json")
    code = main([
        "simulate", "--ftl", "pagemap", "--capacity-mb", "32",
        "--requests", "300", "--precondition", "0", "--json", out_file,
    ])
    assert code == 0
    payload = json.loads(open(out_file).read())
    assert payload[0]["ftl"] == "pagemap"
    assert payload[0]["num_requests"] == 300


def test_tracegen_and_replay(tmp_path, capsys):
    trace_file = str(tmp_path / "trace.spc")
    code = main([
        "tracegen", "--workload", "tpcc", "--requests", "200",
        "--footprint-mb", "8", "--out", trace_file, "--format", "spc",
    ])
    assert code == 0
    assert "wrote 200 requests" in capsys.readouterr().out
    # replay the saved trace through simulate
    code = main([
        "simulate", "--ftl", "fast", "--capacity-mb", "32",
        "--replay", trace_file, "--precondition", "0.5",
    ])
    assert code == 0
    assert "fast on" in capsys.readouterr().out


def test_replay_of_an_unordered_trace_is_a_usage_error(tmp_path, capsys):
    """A replay file whose arrivals go backwards exits 2 with a one-line
    message that names the file (it used to be sorted without a word)."""
    trace_file = tmp_path / "unordered.spc"
    trace_file.write_text("0,0,4096,w,0.002\n0,8,4096,w,0.001\n0,16,4096,r,0.003\n")
    code = main(["simulate", "--ftl", "dloop", "--capacity-mb", "16",
                 "--replay", str(trace_file), "--precondition", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"repro-sim simulate: {trace_file}: streamed arrival "
                                   "1000.0 precedes predecessor 2000.0")
    assert "mean response" not in captured.out


#: suffix -> (a well-formed line, a line with two fields)
REPLAY_FORMATS = {
    ".spc": ("0,0,4096,w,0.001\n", "0,8\n"),
    ".ds": ("1.0 0 0 8 0\n", "2.0 0\n"),
}


@pytest.mark.parametrize("suffix", sorted(REPLAY_FORMATS))
@pytest.mark.parametrize("case", ("empty", "two-field-line"))
def test_replay_of_a_malformed_trace_is_a_usage_error(tmp_path, capsys, suffix, case):
    """An empty file and a short line each exit 2 with one line naming
    the file (and the line), instead of replaying nothing or ending in a
    raw traceback."""
    good, short = REPLAY_FORMATS[suffix]
    trace_file = tmp_path / f"{case}{suffix}"
    trace_file.write_text("" if case == "empty" else good + short)
    code = main(["simulate", "--ftl", "dloop", "--capacity-mb", "16",
                 "--replay", str(trace_file), "--precondition", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    expected = "no requests" if case == "empty" else "line 2: expected"
    assert captured.err.startswith(f"repro-sim simulate: {trace_file}: {expected}")
    assert captured.err.count("\n") == 1
    assert "mean response" not in captured.out


def test_tracegen_disksim_format(tmp_path, capsys):
    trace_file = str(tmp_path / "trace.ds")
    main(["tracegen", "--workload", "build", "--requests", "50",
          "--footprint-mb", "8", "--out", trace_file, "--format", "disksim"])
    first = open(trace_file).readline().split()
    assert len(first) == 5  # DiskSim ASCII fields


def test_sweep_and_report(tmp_path, capsys):
    out_file = str(tmp_path / "sweep.json")
    code = main([
        "sweep", "--figure", "10", "--scale", str(1 / 256),
        "--requests", "200", "--traces", "financial1", "--out", out_file,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 10 sweep" in out
    code = main(["report", "--input", out_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "results from" in out
    # sweep results carry an axis -> rendered as a sparkline figure
    assert "figure shape" in out
    assert "'winner': 'dloop'" in out


@pytest.mark.parametrize("bad, message", [
    (["--scale", "0"], "capacity 0 too small"),
    (["--scale", "-1"], "too small"),
    (["--requests", "0"], "num_requests must be >= 1"),
])
def test_sweep_rejects_bad_input_before_any_cell_runs(monkeypatch, capsys, bad, message):
    import repro.experiments.figures as figures

    monkeypatch.setattr(figures, "run_cells",
                        lambda *args, **kwargs: pytest.fail("a cell ran"))
    code = main(["sweep", "--figure", "8", "--traces", "financial1", *bad])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-sim sweep: ") and message in err


_BAD_NUMBERS = [
    ("--stats-interval-ms", "0", "--stats-interval-ms must be > 0, got 0"),
    ("--cmt-entries", "0", "--cmt-entries must be >= 1, got 0"),
    ("--gc-threshold", "1", "--gc-threshold must be >= 2, got 1"),
    ("--precondition", "1.5", "--precondition must be in [0, 1], got 1.5"),
    ("--precondition", "-0.5", "--precondition must be in [0, 1], got -0.5"),
    ("--iodepth", "-1", "--iodepth must be >= 0, got -1"),
    ("--queue-depth", "0", "--queue-depth must be >= 1, got 0"),
    ("--tenants", "0", "--tenants count must be >= 1"),
    ("--fault-program-rate", "2", "--fault-program-rate must be in [0, 1], got 2"),
    ("--fault-erase-rate", "-0.1", "--fault-erase-rate must be in [0, 1], got -0.1"),
    ("--fault-read-rate", "1.5", "--fault-read-rate must be in [0, 1], got 1.5"),
    ("--fault-uncorrectable-rate", "2", "--fault-uncorrectable-rate must be in [0, 1], got 2"),
    ("--crash-at-ms", "-1", "--crash-at-ms must be > 0, got -1"),
    ("--capacity-mb", "-32", "--capacity-mb must be > 0, got -32"),
    ("--capacity-mb", "0.01", "--capacity-mb 0.01: capacity 10485 too small"),
    ("--page-kb", "0", "--page-kb must be > 0, got 0"),
    ("--extra-pct", "-1", "--extra-pct must be >= 0, got -1"),
    ("--channels", "0", "--channels must be >= 1, got 0"),
    ("--requests", "0", "--requests must be >= 1, got 0"),
    ("--footprint-mb", "-1", "--footprint-mb must be > 0, got -1"),
    ("--seed", "-1", "--seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("flag, value, message", _BAD_NUMBERS,
                         ids=[f"{flag}={value}" for flag, value, _ in _BAD_NUMBERS])
def test_simulate_rejects_a_bad_number_in_one_line(monkeypatch, capsys, flag, value, message):
    """Every numeric flag is checked before anything is built: one
    stderr line that names the flag and its range, exit 2."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "make_workload", lambda *a, **k: pytest.fail("a trace was built"))
    code = main(["simulate", "--capacity-mb", "16", "--requests", "50", flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro-sim simulate: {message}")
    assert captured.err.count("\n") == 1


_BAD_COMBINATIONS = [
    (["--tenants", "2", "--replay", "trace.spc"],
     "--tenants generates per-tenant synthetic traffic; it does not compose with --replay"),
    (["--tenants", "2", "--crash-at-ms", "5"], "--tenants does not compose with --crash-at-ms"),
    (["--iodepth", "4", "--crash-at-ms", "5"], "--crash-at-ms is not supported with --iodepth"),
    (["--iodepth", "4", "--queue-depth", "2"], "--queue-depth is not supported with --iodepth"),
    (["--iodepth", "4", "--tenants", "2"], "--tenants is not supported with --iodepth"),
]


@pytest.mark.parametrize("flags, message", _BAD_COMBINATIONS,
                         ids=[" ".join(flags[::2]) for flags, _ in _BAD_COMBINATIONS])
def test_simulate_rejects_a_bad_combination_in_one_line(monkeypatch, capsys, flags, message):
    """Flags that do not compose are refused like a bad number: before
    a trace is read or built, one stderr line, exit 2."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "make_workload", lambda *a, **k: pytest.fail("a trace was built"))
    monkeypatch.setattr(cli, "iter_trace_file", lambda *a, **k: pytest.fail("a trace was read"))
    code = main(["simulate", "--capacity-mb", "16", "--requests", "50", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"repro-sim simulate: {message}\n"


def test_sweep_csv_output(monkeypatch, tmp_path, capsys):
    """Results are written as JSON only; any other suffix is refused
    before a cell runs."""
    import repro.experiments.figures as figures

    monkeypatch.setattr(figures, "run_cells",
                        lambda *args, **kwargs: pytest.fail("a cell ran"))
    out_file = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--figure", "9", "--scale", str(1 / 256),
        "--requests", "200", "--traces", "financial2", "--out", str(out_file),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-sim sweep: ") and str(out_file) in err
    assert err.count("\n") == 1
    assert not out_file.exists()


@pytest.mark.parametrize("content", [
    "ftl,trace,mean_response_ms\ndloop,financial1,1.5\n",  # the CSV sweep once wrote
    json.dumps({"ftl": "dloop"}),  # JSON, but not a list of results
], ids=["csv", "json-not-results"])
def test_report_of_a_non_results_file_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path / "fig8.csv"
    path.write_text(content)
    code = main(["report", "--input", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro-sim report: {path}: not a results JSON file")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_report_of_an_unreadable_file_is_a_usage_error(tmp_path, capsys, kind):
    path = tmp_path / "fig8.json"
    if kind == "directory":
        path.mkdir()
    code = main(["report", "--input", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro-sim report: {path}: ")
    assert captured.err.count("\n") == 1


def test_simulate_with_config_file(tmp_path, capsys):
    import json

    from repro.experiments.config import ExperimentConfig, config_to_dict, scaled_geometry

    config = ExperimentConfig(
        geometry=scaled_geometry(2, scale=1 / 256), ftl="fast", precondition_fill=0.5
    )
    path = str(tmp_path / "cfg.json")
    json.dump(config_to_dict(config), open(path, "w"))
    code = main(["simulate", "--config", path, "--requests", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fast on financial1" in out


def test_trace_stats_synthetic(capsys):
    code = main(["trace-stats", "--workload", "tpcc", "--requests", "500",
                 "--footprint-mb", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace character: tpcc" in out
    assert "hot10_%" in out
    assert "Write(%)" in out


def test_trace_stats_from_file(tmp_path, capsys):
    trace_file = str(tmp_path / "t.spc")
    main(["tracegen", "--workload", "financial2", "--requests", "300",
          "--footprint-mb", "16", "--out", trace_file])
    capsys.readouterr()
    code = main(["trace-stats", "--trace", trace_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace character" in out


def test_simulate_extra_archetype(capsys):
    code = main(["simulate", "--ftl", "pagemap", "--capacity-mb", "32",
                 "--workload", "webserver", "--requests", "300",
                 "--precondition", "0.4"])
    assert code == 0
    assert "pagemap on webserver" in capsys.readouterr().out


def test_simulate_closed_loop_mode(capsys):
    code = main(["simulate", "--ftl", "pagemap", "--capacity-mb", "32",
                 "--requests", "300", "--precondition", "0.4", "--iodepth", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "closed-loop iodepth=8" in out
    assert "IOPS" in out


def test_report_without_sweep_axis(tmp_path, capsys):
    """Single-run results (no swept knob) render as a bar chart."""
    out_file = str(tmp_path / "single.json")
    main(["simulate", "--ftl", "pagemap", "--capacity-mb", "32",
          "--requests", "200", "--precondition", "0", "--json", out_file])
    capsys.readouterr()
    code = main(["report", "--input", out_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean response time" in out  # hbar chart fallback
