"""Command line of the benchmark: ``python -m perfbench`` from the repo root.

* no ``--trace``: the full report — every workload (or the ones named),
  an untraced run for the end-to-end metrics, then a traced run for the
  per-layer metrics; every metric printed by name with its unit;
  ``--out FILE`` also writes them as JSON.
* ``--workload W --trace 0|1``: one run of one workload, as the
  benchmark driver calls it; the last line of standard output is one
  JSON object with ``correct``, ``attempted``, ``failed`` and the
  end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.
* ``--selfcheck``: the end-to-end metrics measured twice on this
  checkout — two passes side by side, repetition by repetition, taking
  turns to go first — compared against each metric's bound.

Exit status is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: {ROOT / 'src' / 'repro'} not found; "
             "run from a checkout of the whole repository")

from perfbench.harness import SIM_METRICS, SPEC, measure  # noqa: E402


def _progress(name: str, kind: str, rep: dict) -> None:
    if "error" in rep:
        note = "FAILED"
    else:
        note = f"timed {rep['wall_s']:.2f} s, set-up {rep['setup_s']:.2f} s"
    print(f"  {name:<22} {kind:<9} {note} (process {rep['child_s']:.1f} s)",
          file=sys.stderr, flush=True)


def _print_metrics(title: str, section: str, results: dict) -> None:
    print(f"\n== {title} ==")
    for name, result in results.items():
        print(f"[{name}] repetitions={result['reps']} attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}")
        for problem in result["problems"]:
            print(f"    PROBLEM: {problem}")
        for spec in SPEC[section]:
            value = result.get(section, {}).get(spec["name"])
            if value is not None:
                print(f"    {spec['name']:<34} {value:>16.6g} {spec['unit']:<9}"
                      f" ({spec['better']} is better)")
        if name == "exch_tenants3_dloop" and section == "end_to_end":
            print("    note: this workload is backlogged by design (DRR only matters "
                  "when tenants compete); its sim_* response times measure the backlog")


def _contract_line(result: dict, section: str) -> str:
    values = result.get(section, {})
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in SPEC[section] if spec["name"] in values
        },
    })


def _selfcheck(names, seed: int, seconds: float) -> bool:
    first, second = measure(names, seed, seconds, False, progress=_progress, passes=2)
    ok = True
    print(f"{'workload':<22} {'metric':<26} {'first':>14} {'second':>14} "
          f"{'ratio':>8} {'bound':>6}  verdict")
    for name in names:
        for run in (first[name], second[name]):
            ok = ok and run["correct"]
            for problem in run["problems"]:
                print(f"{name}: PROBLEM: {problem}")
        for spec in SPEC["end_to_end"]:
            a = first[name].get("end_to_end", {}).get(spec["name"])
            b = second[name].get("end_to_end", {}).get(spec["name"])
            if a is None or b is None:
                passed, ratio = False, float("nan")
            elif spec["name"] in SIM_METRICS:
                # simulated time on one seed is deterministic: exact
                passed, ratio = a == b, b / a
            else:
                ratio = b / a
                passed = abs(ratio - 1.0) <= spec["bound"]
            ok = ok and passed
            print(f"{name:<22} {spec['name']:<26} {a!s:>14.14} {b!s:>14.14} "
                  f"{ratio:>8.4f} {spec['bound']:>6}  {'PASS' if passed else 'FAIL'}")
    print("selfcheck:", "PASS" if ok else "FAIL")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    known = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", action="append", choices=known,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="folded into every persona's seed (default 0)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measuring budget per workload and run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one workload, one JSON line")
    parser.add_argument("--out", help="write the full report's metrics as JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="measure twice and compare against the bounds")
    args = parser.parse_args(argv)
    names = args.workload or known

    if args.selfcheck:
        return 0 if _selfcheck(names, args.seed, args.seconds) else 1

    if args.trace is not None:
        if len(names) != 1:
            parser.error("--trace needs exactly one --workload")
        (results,) = measure(names, args.seed, args.seconds, bool(args.trace))
        result = results[names[0]]
        for problem in result["problems"]:
            print(f"PROBLEM: {problem}", file=sys.stderr)
        section = "per_layer" if args.trace else "end_to_end"
        print(_contract_line(result, section))
        return 0 if result["correct"] else 1

    (untraced,) = measure(names, args.seed, args.seconds, False, progress=_progress)
    (traced,) = measure(names, args.seed, args.seconds, True, progress=_progress)
    _print_metrics("end-to-end metrics (untraced repetitions)", "end_to_end", untraced)
    _print_metrics("per-layer metrics (traced run)", "per_layer", traced)
    correct = all(r["correct"] for r in list(untraced.values()) + list(traced.values()))
    if args.out:
        report = {
            "seed": args.seed,
            "seconds": args.seconds,
            "correct": correct,
            "workloads": {
                name: {
                    "repetitions": untraced[name]["reps"],
                    "attempted": untraced[name]["attempted"],
                    "failed": untraced[name]["failed"],
                    "end_to_end": untraced[name].get("end_to_end", {}),
                    "per_layer": traced[name].get("per_layer", {}),
                }
                for name in names
            },
        }
        with open(args.out, "w", encoding="ascii") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    print("\nperfbench:", "all checks passed" if correct else "CHECKS FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
