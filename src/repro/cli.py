"""Command-line interface.

The subcommands cover the library's workflows end to end::

    repro-sim simulate  --ftl dloop --workload financial1 ...   # one run
    repro-sim simulate  --trace run.json --stats-interval-ms 50 # + observability
    repro-sim simulate  --sanitize ...                          # + invariant checks
    repro-sim simulate  --faults --crash-at-ms 500 ...          # + faults / power loss
    repro-sim simulate  --profile run.pstats ...                # + cProfile
    repro-sim tracegen  --workload tpcc --out trace.spc ...     # save a trace
    repro-sim sweep     --figure 8 --out fig8.json ...          # a paper grid
    repro-sim torture   --budget 40 --json torture.json         # crash-point sweeps
    repro-sim report    --input results.json                    # tables/charts
    repro-sim lint      src                                     # determinism linter

Install exposes it as ``repro-sim``; ``python -m repro.cli`` also works.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.controller.controller import StreamOrderError
from repro.experiments.config import ExperimentConfig, KB, MB
from repro.experiments.runner import run_simulation
from repro.flash.geometry import SSDGeometry
from repro.ftl.registry import available_ftls
from repro.metrics.ascii_chart import hbar_chart
from repro.metrics.report import format_table
from repro.traces.parser import TraceFormatError, iter_trace_file, write_disksim, write_spc
from repro.traces.stream import stream_workload
from repro.traces.synthetic import EXTRA_TRACE_NAMES, PAPER_TRACE_NAMES, generate, make_workload


def _build_geometry(args) -> SSDGeometry:
    return SSDGeometry.from_capacity(
        int(args.capacity_mb * MB),
        page_size=int(args.page_kb * KB),
        extra_blocks_percent=args.extra_pct,
        channels=args.channels,
    )


def _add_geometry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--capacity-mb", type=float, default=256.0, help="data-sheet capacity (MB)")
    parser.add_argument("--page-kb", type=float, default=2.0, help="flash page size (KB)")
    parser.add_argument("--extra-pct", type=float, default=3.0, help="extra (over-provisioned) blocks %%")
    parser.add_argument("--channels", type=int, default=8)


def _build_fault_config(args):
    """FaultConfig from the ``--faults``/``--fault-*`` flags, or None.

    ``--faults`` enables the moderate preset; any explicit rate flag
    overrides its field (and implies fault injection by itself).
    """
    overrides = {
        key: value
        for key, value in (
            ("program_fail_rate", args.fault_program_rate),
            ("erase_fail_rate", args.fault_erase_rate),
            ("read_error_rate", args.fault_read_rate),
            ("read_uncorrectable_rate", args.fault_uncorrectable_rate),
        )
        if value is not None
    }
    if not args.faults and not overrides:
        return None
    import dataclasses

    from repro.faults import FaultConfig

    base = (
        FaultConfig.moderate(args.fault_seed)
        if args.faults
        else FaultConfig(seed=args.fault_seed)
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=PAPER_TRACE_NAMES + EXTRA_TRACE_NAMES, default="financial1")
    parser.add_argument("--requests", type=int, default=5000)
    parser.add_argument("--footprint-mb", type=float, default=None,
                        help="workload footprint (default: 55%% of capacity)")
    parser.add_argument("--seed", type=int, default=None)


class _MaybeProfile:
    """Context manager: cProfile the block and dump stats when enabled.

    Backs ``repro-sim simulate --profile out.pstats``.  Read the output
    with ``python -m pstats out.pstats`` (then ``sort cumtime`` /
    ``stats 30``) or interactively with ``snakeviz out.pstats``.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self._profiler = None

    def __enter__(self):
        if self.path:
            import cProfile

            self._profiler = cProfile.Profile()
            self._profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        if self._profiler is not None:
            self._profiler.disable()
            self._profiler.dump_stats(self.path)
            print(f"profile saved to {self.path} (read with `python -m pstats {self.path}`)")


#: ``simulate``'s numeric flags, by the range each must lie in
#: (``--fault-seed`` is absent: any integer seeds the fault plan's hash).
_SIMULATE_RANGES = (
    ("> 0", lambda v: v > 0,
     ("stats_interval_ms", "crash_at_ms", "capacity_mb", "page_kb", "footprint_mb")),
    (">= 0", lambda v: v >= 0, ("iodepth", "extra_pct", "seed")),
    (">= 1", lambda v: v >= 1, ("cmt_entries", "queue_depth", "channels", "requests")),
    (">= 2", lambda v: v >= 2, ("gc_threshold",)),
    ("in [0, 1]", lambda v: 0 <= v <= 1,
     ("precondition", "fault_program_rate", "fault_erase_rate", "fault_read_rate",
      "fault_uncorrectable_rate")),
)


def _simulate_usage_error(args) -> Optional[str]:
    """The first bad number or flag combination among ``simulate``'s
    flags, as one line that names the flag, or None; nothing is built
    before it."""
    for bound, within, dests in _SIMULATE_RANGES:
        for dest in dests:
            value = getattr(args, dest)
            if value is not None and not within(value):
                return f"--{dest.replace('_', '-')} must be {bound}, got {value:g}"
    if args.tenants is not None:
        if args.replay:
            return ("--tenants generates per-tenant synthetic traffic; "
                    "it does not compose with --replay")
        if args.crash_at_ms is not None:
            return "--tenants does not compose with --crash-at-ms"
    if args.iodepth:
        # closed-loop mode has its own admission model
        for flag, value in (("--crash-at-ms", args.crash_at_ms),
                            ("--queue-depth", args.queue_depth),
                            ("--tenants", args.tenants)):
            if value is not None:
                return f"{flag} is not supported with --iodepth"
    if args.tenants is not None:
        from repro.tenancy import parse_tenants_spec

        try:
            parse_tenants_spec(args.tenants, args.workload)
        except ValueError as exc:  # "--tenants count must be >= 1" and the like
            return str(exc)
    if not args.config:
        try:
            _build_geometry(args)
        except ValueError as exc:  # fewer than one block per plane
            return f"--capacity-mb {args.capacity_mb:g}: {exc}"
    return None


def cmd_simulate(args) -> int:
    problem = _simulate_usage_error(args)
    if problem is not None:
        print(f"repro-sim simulate: {problem}", file=sys.stderr)
        return 2
    # Both arrive from the replayed file, up front or mid-run.
    try:
        return _simulate(args)
    except TraceFormatError as exc:  # names the file and line itself
        print(f"repro-sim simulate: {exc}", file=sys.stderr)
        return 2
    except StreamOrderError as exc:
        where = f"{args.replay}: " if args.replay else ""
        print(f"repro-sim simulate: {where}{exc}", file=sys.stderr)
        return 2


def _simulate(args) -> int:
    if args.config:
        from repro.experiments.config import load_config

        config = load_config(args.config)
        geometry = config.geometry
    else:
        geometry = _build_geometry(args)
    if args.replay:
        trace = iter_trace_file(args.replay)
        trace_name = args.replay
    else:
        footprint = int(args.footprint_mb * MB) if args.footprint_mb else int(geometry.capacity_bytes * 0.55)
        spec = make_workload(args.workload, num_requests=args.requests,
                             footprint_bytes=footprint, seed=args.seed)
        trace = stream_workload(spec)
        trace_name = spec.name
    if not args.config:
        config = ExperimentConfig(
            geometry=geometry,
            ftl=args.ftl,
            cmt_entries=args.cmt_entries,
            gc_threshold=args.gc_threshold,
            precondition_fill=args.precondition if args.precondition > 0 else None,
        )
    stats_interval_us = (
        args.stats_interval_ms * 1000.0
        if args.stats_interval_ms is not None
        else None
    )
    faults = _build_fault_config(args)
    crash_at_us = args.crash_at_ms * 1000.0 if args.crash_at_ms is not None else None
    if args.iodepth:
        # closed-loop mode has its own admission model
        from repro.controller.closedloop import ClosedLoopDriver
        from repro.controller.device import SimulatedSSD as _SSD

        ssd = _SSD(config.geometry, config.timing, ftl=config.ftl,
                   stats_interval_us=stats_interval_us, sanitize=args.sanitize,
                   faults=faults, **config.build_kwargs())
        if config.precondition_fill:
            ssd.precondition(config.precondition_fill)
        page = config.geometry.page_size
        num_lpns = config.geometry.num_lpns
        ops = []
        for r in trace:
            first = min(r.offset_bytes // page, num_lpns - 1)
            last = min((r.end_bytes - 1) // page, num_lpns - 1)
            ops.append((first, max(1, last - first + 1), r.is_write))
        driver = ClosedLoopDriver(ssd, ops, iodepth=args.iodepth)
        if args.trace:
            from repro.obs.chrome_trace import ChromeTraceWriter

            with ChromeTraceWriter(args.trace).recording(), _MaybeProfile(args.profile):
                loop_result = driver.run()
            print(f"chrome trace saved to {args.trace}")
        else:
            with _MaybeProfile(args.profile):
                loop_result = driver.run()
        rows = [{"metric": k, "value": v} for k, v in loop_result.row(page).items()]
        rows.append({"metric": "duration (s)", "value": loop_result.duration_us / 1e6})
        if ssd.sanitizer is not None:
            report = ssd.sanitizer.finalize()
            rows += [{"metric": f"sanitizer: {k}", "value": v} for k, v in report.items()]
        print(format_table(rows, title=f"{config.ftl} closed-loop iodepth={args.iodepth} on {trace_name}"))
        return 0
    tenancy = None
    if args.tenants is not None:
        from repro.tenancy import TrafficModel, parse_tenants_spec

        tenancy = TrafficModel(
            tenants=parse_tenants_spec(args.tenants, args.workload),
            total_requests=args.requests,
            base_seed=args.seed if args.seed is not None else 0x7E7A,
        )
        trace = iter(())
        trace_name = f"tenants[{args.tenants}]"
    with _MaybeProfile(args.profile):
        result = run_simulation(
            trace, config, trace_name=trace_name,
            trace_path=args.trace, stats_interval_us=stats_interval_us,
            sanitize=args.sanitize, faults=faults, crash_at_us=crash_at_us,
            queue_depth=args.queue_depth,
            tenancy=tenancy,
        )
    rows = [
        {"metric": "mean response (ms)", "value": result.mean_response_ms},
        {"metric": "read mean (ms)", "value": result.read_response_ms},
        {"metric": "write mean (ms)", "value": result.write_response_ms},
        {"metric": "p99 (ms)", "value": result.p99_response_ms},
        {"metric": "SDRPP (ln)", "value": result.sdrpp},
        {"metric": "GC passes", "value": result.gc_passes},
        {"metric": "GC moved pages", "value": result.gc_moved_pages},
        {"metric": "copy-backs", "value": result.copybacks},
        {"metric": "erases", "value": result.erases},
        {"metric": "wall time (s)", "value": result.wall_time_s},
    ]
    if result.cmt_hit_ratio is not None:
        rows.insert(5, {"metric": "CMT hit ratio", "value": result.cmt_hit_ratio})
    stream_report = result.extras.get("stream")
    if stream_report:
        rows += [{"metric": f"stream: {k}", "value": v} for k, v in stream_report.items()]
    run_stats = result.extras.get("run_stats")
    if run_stats:
        rows += [{"metric": f"stats: {k}", "value": v} for k, v in run_stats.items()]
    sanitizer_report = result.extras.get("sanitizer")
    if sanitizer_report:
        rows += [{"metric": f"sanitizer: {k}", "value": v} for k, v in sanitizer_report.items()]
    fault_report = result.extras.get("faults")
    if fault_report:
        rows += [{"metric": f"faults: {k}", "value": v}
                 for k, v in fault_report.items() if k != "sites"]
    crash_report = result.extras.get("crash")
    if crash_report:
        rows += [{"metric": f"crash: {k}", "value": v} for k, v in crash_report.items()]
    if result.extras.get("failed_requests"):
        rows.append({"metric": "failed requests",
                     "value": result.extras["failed_requests"]})
    tenants_report = result.extras.get("tenants")
    if tenants_report:
        rows.append({"metric": "tenant fairness (Jain)",
                     "value": tenants_report["fairness_jain"]})
    capacity_mb = geometry.capacity_bytes / MB
    print(format_table(rows, title=f"{config.ftl} on {trace_name} ({capacity_mb:g} MB SSD)"))
    if tenants_report:
        shares = tenants_report["completed_page_shares"]
        tenant_rows = []
        for share, digest in zip(shares, tenants_report["summaries"]):
            tenant_rows.append({
                "tenant": digest["tenant"],
                "requests": digest["requests"],
                "page share": round(share, 4),
                "mean (ms)": round(digest["mean_us"] / 1000.0, 3),
                "p99 (ms)": round(digest["p99_us"] / 1000.0, 3),
                "SLO violations": digest["slo_violations"],
                "failed": digest["failed_requests"],
            })
        print()
        print(format_table(tenant_rows, title="per-tenant digest"))
    if args.trace:
        print(f"\nchrome trace saved to {args.trace} (open in https://ui.perfetto.dev)")
    if args.json:
        from repro.experiments.results_io import save_results_json

        save_results_json([result], args.json)
        print(f"\nresult saved to {args.json}")
    return 0


def cmd_tracegen(args) -> int:
    footprint = int(args.footprint_mb * MB) if args.footprint_mb else 64 * MB
    spec = make_workload(args.workload, num_requests=args.requests,
                         footprint_bytes=footprint, seed=args.seed)
    # Stream straight to the file — tracegen never holds the trace in
    # memory, so multi-million-request files cost O(chunk) RAM.
    count = 0

    def counted():
        nonlocal count
        for request in stream_workload(spec):
            count += 1
            yield request

    with open(args.out, "w", encoding="ascii") as handle:
        if args.format == "spc":
            write_spc(counted(), handle)
        else:
            write_disksim(counted(), handle)
    print(f"wrote {count} requests of '{spec.name}' to {args.out} ({args.format})")
    return 0


def cmd_sweep(args) -> int:
    from dataclasses import replace

    from repro.experiments.figures import F8, F9, F10

    grid = replace(
        {8: F8, 9: F9, 10: F10}[args.figure], scale=args.scale,
        num_requests=args.requests, workloads=tuple(args.traces or PAPER_TRACE_NAMES),
    )
    if args.out and not args.out.endswith(".json"):
        print(f"repro-sim sweep: --out {args.out}: results are written as JSON; "
              "name a .json file", file=sys.stderr)
        return 2
    try:
        grid.scenarios()  # names, scale and request count, before any cell runs
    except ValueError as exc:
        print(f"repro-sim sweep: {exc}", file=sys.stderr)
        return 2
    results = grid.run()
    table = grid.rows(results)
    print(format_table(table, title=f"Figure {args.figure} sweep (scale {args.scale:g})"))
    if args.out:
        from repro.experiments.results_io import save_results_json

        save_results_json(results, args.out)
        print(f"\nresults saved to {args.out}")
    return 0


def cmd_trace_stats(args) -> int:
    if args.trace:
        try:
            trace = list(iter_trace_file(args.trace))
        except TraceFormatError as exc:
            print(f"repro-sim trace-stats: {exc}", file=sys.stderr)
            return 2
        name = args.trace
    else:
        footprint = int(args.footprint_mb * MB) if args.footprint_mb else 64 * MB
        spec = make_workload(args.workload, num_requests=args.requests,
                             footprint_bytes=footprint, seed=args.seed)
        trace = generate(spec)
        name = spec.name
    from repro.traces.analysis import characterize
    from repro.traces.stats import measure

    stats = measure(name, trace)
    character = characterize(trace)
    rows = [{"metric": k, "value": v} for k, v in stats.row().items()]
    rows += [{"metric": k, "value": v} for k, v in character.row().items()]
    print(format_table(rows, title=f"trace character: {name}"))
    return 0


def cmd_lint(args) -> int:
    from repro.lint import run_lint

    def codes(value: Optional[str]) -> Optional[List[str]]:
        return [c.strip() for c in value.split(",") if c.strip()] if value else None

    try:
        result = run_lint(args.paths, select=codes(args.select), ignore=codes(args.ignore))
    except ValueError as exc:
        print(f"repro-sim lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(result.render_json())
    else:
        print(result.render_text())
    return result.exit_code


def cmd_schema(args) -> int:
    from repro.obs import schema

    if args.verify_coverage:
        from repro.obs.smoke import SCENARIOS, run_coverage_smoke

        names = None
        if args.scenarios:
            names = [s.strip() for s in args.scenarios.split(",") if s.strip()]
        try:
            result = run_coverage_smoke(names)
        except ValueError as exc:
            print(f"repro-sim schema: {exc}", file=sys.stderr)
            return 2
        print(f"scenarios: {', '.join(result.scenarios)} "
              f"({len(result.scenarios)}/{len(SCENARIOS)})")
        print(f"events observed: {result.events} "
              f"({result.report.observed} distinct kinds)")
        for pair in sorted(result.report.allowed_missing):
            print(f"  allowed-missing: {pair[0]}/{pair[1]}")
        for pair in sorted(result.report.missing):
            print(f"  MISSING: {pair[0]}/{pair[1]} declared but never observed")
        for pair in sorted(result.report.undeclared):
            print(f"  UNDECLARED: {pair[0]}/{pair[1]} observed but not in the registry")
        for problem in result.problems:
            print(f"  INVALID: {problem}")
        if not result.ok:
            print("\nFAIL: the smoke trace does not round-trip the event registry")
            return 1
        print("\nevery declared event observed; every observed event declared")
        return 0

    rows = [
        {"event": f"{entry.category}/{entry.name}", "ph": entry.ph,
         "keys": " ".join(sorted(entry.required)) or "-",
         "exported": "yes" if entry.export_only else "",
         "description": entry.description}
        for _, entry in sorted(schema.REGISTRY.items())
    ]
    print(format_table(rows, title=f"{len(rows)} declared TraceBus events"))
    return 0


def cmd_report(args) -> int:
    from repro.experiments.results_io import ResultsFormatError, load_results_json

    try:
        results = load_results_json(args.input)
    except (ResultsFormatError, OSError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"repro-sim report: {args.input}: {reason}", file=sys.stderr)
        return 2
    table = [
        {"trace": r.trace, "ftl": r.ftl, "mean_ms": r.mean_response_ms,
         "p99_ms": r.p99_response_ms, "sdrpp": r.sdrpp, **r.extras}
        for r in results
    ]
    print(format_table(table, title=f"{len(results)} results from {args.input}"))
    from repro.experiments.figures import detect_axis, render_figure, summarize_wins

    try:
        detect_axis(results)
    except ValueError:
        means = {f"{r.trace}/{r.ftl}": r.mean_response_ms for r in results}
        print()
        print(hbar_chart(means, title="mean response time", unit=" ms"))
    else:
        print()
        print(render_figure(results, title="figure shape (sparklines per trace)"))
        print()
        print(summarize_wins(results))
    return 0


def _print_not_applicable(expansion) -> None:
    note = expansion.not_applicable_note()
    if note:
        print(note)


def cmd_torture(args) -> int:
    import json

    from repro.torture import CRASH_KINDS, CampaignConfig, TortureCampaign

    if args.budget is not None and args.budget < 1:
        raise SystemExit("--budget must be >= 1 (omit it for an exhaustive sweep)")
    try:
        config = CampaignConfig(
            ftls=tuple(args.ftls),
            workloads=tuple(args.workloads),
            fault_plans=tuple(args.faults),
            num_requests=args.requests,
            base_seed=args.seed,
            budget=args.budget,
            double=args.double,
            write_buffer_pages=args.write_buffer,
            queue_depth=args.queue_depth,
        )
    except ValueError as exc:
        raise SystemExit(f"torture: {exc}") from None
    campaign = TortureCampaign(config)
    _print_not_applicable(config.expansion())

    if args.point is not None:
        # Single-replay repro mode: the command the sweep report prints
        # for a failing point lands here.
        kind, sep, index = args.point.partition(":")
        if not sep or not index.isdigit() or kind not in CRASH_KINDS:
            raise SystemExit(
                f"--point must be KIND:INDEX with KIND in {CRASH_KINDS}, "
                f"e.g. program:17"
            )
        point = (kind, int(index))
        failures = 0
        for cell in campaign.cells():
            result = campaign.run_point(cell, point, double=args.double)
            verdict = "ok" if not result.violations else "VIOLATION"
            if not result.fired:
                verdict = "unreached"
            print(f"{cell.scenario_id} @ {kind}:{point[1]}"
                  f"{' (double)' if args.double else ''}: {verdict} "
                  f"(recovered {result.recovered_mappings} mappings, "
                  f"{result.excused} excused)")
            for v in result.violations:
                failures += 1
                print(f"  {v.kind}: lpn={v.lpn} acked_write={v.acked_write} "
                      f"acked_trim={v.acked_trim} issued={v.issued} "
                      f"mapped={v.mapped}")
        return 1 if failures else 0

    report = campaign.run()
    rows = [
        {
            "cell": c["cell"],
            "points": f"{c['points_run']}/{c['points_total']}"
                      + (" (sampled)" if c["sampled"] else ""),
            "unreached": c["unreached"],
            "excused": c["excused_total"],
            "violations": c["violations_total"],
        }
        for c in report["cells"]
    ]
    print(format_table(
        rows,
        title=f"torture sweep: {report['total_points_run']} crash replays, "
              f"{report['total_violations']} violations",
    ))
    for c in report["cells"]:
        if c["first_failing"]:
            print(f"\n{c['cell']} first failing point "
                  f"{c['first_failing']['point']}"
                  f"{' (double)' if c['first_failing']['double'] else ''} — "
                  f"reproduce with:\n  {c['first_failing']['repro']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report, sort_keys=True,
                                    separators=(",", ":")))
            handle.write("\n")
        print(f"\nreport saved to {args.json}")
    return 1 if report["total_violations"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="DLOOP reproduction: simulate FTLs, generate traces, run paper sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trace through one FTL")
    sim.add_argument("--ftl", choices=available_ftls(), default="dloop")
    sim.add_argument("--replay", help="replay a trace file (.spc/.csv or DiskSim ASCII)")
    sim.add_argument("--trace", metavar="OUT.json",
                     help="record a Chrome trace-event JSON of the run "
                          "(open in Perfetto / chrome://tracing)")
    sim.add_argument("--stats-interval-ms", type=float, default=None,
                     help="sample live run statistics (queue depth, free blocks, "
                          "CMT, copy-back ratio) every N simulated ms")
    sim.add_argument("--cmt-entries", type=int, default=4096)
    sim.add_argument("--gc-threshold", type=int, default=3)
    sim.add_argument("--precondition", type=float, default=0.75,
                     help="pre-fill fraction in [0, 1] (0 disables)")
    sim.add_argument("--json", help="save the result to a JSON file")
    sim.add_argument("--config", help="load geometry/FTL settings from a JSON config file")
    sim.add_argument("--iodepth", type=int, default=0,
                     help="closed-loop mode: keep N requests outstanding and report IOPS")
    sim.add_argument("--queue-depth", type=int, default=None,
                     help="bound the admission window to N outstanding "
                          "requests (NCQ model; default unbounded)")
    sim.add_argument("--tenants", default=None, metavar="SPEC",
                     help="multi-tenant run: a tenant count "
                          "(equal weights, the --workload persona) or "
                          "name=persona[:weight[:slo_ms]] entries, comma-"
                          "separated (see docs/multitenancy.md)")
    sim.add_argument("--sanitize", action="store_true",
                     help="run under the FTL invariant sanitizer (fails fast on "
                          "any mapping/GC/ordering violation; see docs/static-analysis.md)")
    sim.add_argument("--faults", action="store_true",
                     help="enable deterministic fault injection "
                          "(moderate preset; see repro.faults)")
    sim.add_argument("--fault-seed", type=int, default=0,
                     help="seed for the fault plan (default 0)")
    sim.add_argument("--fault-program-rate", type=float, default=None,
                     help="program-failure probability per page program")
    sim.add_argument("--fault-erase-rate", type=float, default=None,
                     help="erase-failure probability per block erase")
    sim.add_argument("--fault-read-rate", type=float, default=None,
                     help="correctable read-error probability per page read")
    sim.add_argument("--fault-uncorrectable-rate", type=float, default=None,
                     help="uncorrectable (page-loss) probability per page read")
    sim.add_argument("--crash-at-ms", type=float, default=None,
                     help="power-fail at this simulated time (ms), recover "
                          "from flash metadata, then resume the trace")
    sim.add_argument("--profile", metavar="OUT.pstats",
                     help="cProfile the run loop and dump stats "
                          "(inspect with `python -m pstats` or snakeviz)")
    _add_geometry_args(sim)
    _add_workload_args(sim)
    sim.set_defaults(func=cmd_simulate)

    gen = sub.add_parser("tracegen", help="generate a synthetic trace file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=("spc", "disksim"), default="spc")
    _add_workload_args(gen)
    gen.set_defaults(func=cmd_tracegen)

    sweep = sub.add_parser("sweep", help="regenerate a paper figure grid")
    sweep.add_argument("--figure", type=int, choices=(8, 9, 10), required=True)
    sweep.add_argument("--scale", type=float, default=1 / 32)
    sweep.add_argument("--requests", type=int, default=4000)
    sweep.add_argument("--traces", nargs="*", choices=PAPER_TRACE_NAMES, default=None)
    sweep.add_argument("--out", help="save results as JSON (a .json path)")
    sweep.set_defaults(func=cmd_sweep)

    stats = sub.add_parser("trace-stats", help="characterise a trace (Table II + locality metrics)")
    stats.add_argument("--trace", help="analyse a trace file instead of a synthetic workload")
    _add_workload_args(stats)
    stats.set_defaults(func=cmd_trace_stats)

    torture = sub.add_parser(
        "torture",
        help="crash-consistency torture campaign (crash-point sweep + "
             "durability oracle)",
        description="Replay each (FTL x workload x fault plan) cell once to "
                    "discover every candidate crash point (flash programs "
                    "and erases, GC relocation steps, write-buffer flushes, "
                    "map-journal commits), then deterministically re-run the "
                    "trace power-failing at each point, recover, and check "
                    "the durability oracle: every acknowledged write reads "
                    "back, nothing is fabricated, trimmed data stays dead. "
                    "Exhaustive by default; --budget N replays a seeded "
                    "sample. Exits non-zero on any violation. "
                    "See docs/robustness.md.",
    )
    torture.add_argument("--ftls", nargs="*", choices=available_ftls(),
                         default=["dloop", "dftl", "fast", "pagemap"])
    torture.add_argument("--workloads", nargs="*",
                         choices=PAPER_TRACE_NAMES + EXTRA_TRACE_NAMES,
                         default=["build"])
    torture.add_argument("--requests", type=int, default=24,
                         help="trace length per cell (the sweep geometry is "
                              "tiny; every request spawns many crash points)")
    torture.add_argument("--seed", type=int, default=0xD100,
                         help="campaign base seed (per-cell seeds derive "
                              "from it deterministically)")
    torture.add_argument("--budget", type=int, default=None,
                         help="max crash points replayed per cell "
                              "(seeded sample; default: exhaustive)")
    torture.add_argument("--faults", nargs="*",
                         choices=("none", "moderate"), default=["none"],
                         help="fault-plan axis (plans other than 'none' are "
                              "skipped for FTLs without error-path support)")
    torture.add_argument("--double", action="store_true",
                         help="also re-crash each point during recovery "
                              "(second cut at the first recovery erase)")
    torture.add_argument("--write-buffer", type=int, default=None,
                         metavar="PAGES",
                         help="put a volatile DRAM write buffer of N pages "
                              "in front of the FTL (adds wb_flush points)")
    torture.add_argument("--queue-depth", type=int, default=None,
                         help="bound the admission window to N outstanding "
                              "requests (default unbounded)")
    torture.add_argument("--point", metavar="KIND:INDEX",
                         help="replay a single crash point per cell instead "
                              "of sweeping (the repro command a failing "
                              "sweep prints)")
    torture.add_argument("--json", metavar="OUT.json",
                         help="save the full report as canonical JSON "
                              "(byte-identical across identical campaigns)")
    torture.set_defaults(func=cmd_torture)

    rep = sub.add_parser("report", help="render saved results")
    rep.add_argument("--input", required=True)
    rep.set_defaults(func=cmd_report)

    lint = sub.add_parser(
        "lint",
        help="static analysis: determinism (DL1xx), event-schema and "
             "address-domain dataflow (DL2xx) rules",
        description="AST-based static analysis for simulator code. "
                    "Determinism rules: DL101 wall-clock calls, DL102 unseeded "
                    "RNG, DL103 set/dict-order-dependent iteration, DL104 "
                    "float timestamp equality, DL105 mutable default "
                    "arguments. Event-schema rules: DL201 emit sites vs the "
                    "TraceBus registry, DL202 consumers vs the registry, "
                    "DL203 declared-but-never-consumed events (note). "
                    "Dataflow: DL210 address-domain/time-unit mixing. "
                    "Suppress a finding with a '# dl: disable=CODE' pragma.",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to scan (default: src)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", metavar="CODES",
                      help="comma-separated rule codes to run (default: all)")
    lint.add_argument("--ignore", metavar="CODES",
                      help="comma-separated rule codes to skip")
    lint.set_defaults(func=cmd_lint)

    schema_p = sub.add_parser(
        "schema",
        help="TraceBus event registry: list events or verify smoke coverage",
        description="Without flags, prints the declared event registry. "
                    "With --verify-coverage, runs tiny seeded scenarios and "
                    "checks that every declared event is observed (modulo the "
                    "allow-list) and every observed event is declared, with "
                    "valid payloads.",
    )
    schema_p.add_argument("--verify-coverage", action="store_true",
                          help="run the coverage smoke instead of listing")
    schema_p.add_argument("--scenarios", metavar="NAMES",
                          help="comma-separated scenario subset for --verify-coverage")
    schema_p.set_defaults(func=cmd_schema)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
