"""Island guard: every function and class in ``src/`` has a consumer.

A definition that only tests call is an island: the suite keeps it
working while no run, benchmark, example or perfbench workload ever
executes it.  The scan asks that every non-dunder ``def``/``class`` in
``src/`` be named somewhere in ``src/``, ``benchmarks/``, ``examples/``
or ``perfbench/`` -- as a name, an attribute, an import or a string
constant (``getattr`` and the FTL registry look classes up by string).
A package's re-export (its imports and ``__all__``) is not a consumer.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONSUMERS = ("src", "benchmarks", "examples", "perfbench")

#: Called by name-based dispatch (``ast.NodeVisitor``, the CLI's
#: subcommand table).
DISPATCH_PREFIXES = ("visit_", "cmd_")

#: Definitions kept although nothing outside the tests calls them.
KEEP = {
    # read from outside src/ or by a claim
    "capture": "TraceBus.capture: records a run's events into a list (docs/observability.md)",
    "copy_back_saving": "TimingParams.copy_back_saving: the paper's ~30 % copy-back arithmetic",
    "pmf": "zipf.pmf: the exact distribution the sampler tests compare against",
    "power_cycle": "SimulatedSSD.power_cycle: rebuilds the map from on-flash state (docs/api.md)",
    "utilization": "metrics.utilization (busy-time split, item 15's before/after) and FlashArray.utilization",
    "diurnal_warp": "the unfused reference the fused tenant stream is checked against",
    # the address layout the hot paths inline
    "encode_translation_owner": "AddressCodec reference for the owner encoding the page paths inline",
    "is_translation_owner": "AddressCodec reference for the owner encoding the page paths inline",
    "make_ppn": "AddressCodec reference for the PPN layout the page paths inline",
    "make_block": "AddressCodec reference for the block layout the page paths inline",
    "ppn_to_block": "AddressCodec reference for the PPN layout the page paths inline",
    "ppn_to_page": "AddressCodec reference for the PPN layout the page paths inline",
    "block_to_index_in_plane": "AddressCodec reference for the block layout the page paths inline",
    # the state a caller observes an FTL, a device or the bus through
    "is_mapped": "Ftl/GTD lookup a caller reads mapping state through",
    "mapped_lpns": "Ftl's logical view a caller compares FTLs through",
    "log_blocks_in_use": "hybrid FTLs' log-pool occupancy, bounded by the pool size",
    "retired_fraction": "bad-block manager's wear gauge (docs/robustness.md)",
    "remaining_life_fraction": "bad-block manager's wear gauge (docs/robustness.md)",
    "subscriber_count": "TraceBus state that shows a run unsubscribed what it attached",
    # the other half of a format src/ reads or writes
    "save_config": "writes the experiment-config JSON that `repro-sim simulate --config` loads",
    "load_results_csv": "reads the results CSV that `repro-sim sweep --out` writes",
    "parse_disksim": "list form of iter_disksim, the twin of parse_spc",
    "inc": "Counter/Gauge API of MetricsRegistry (docs/observability.md)",
    "dec": "Gauge API of MetricsRegistry (docs/observability.md)",
}


def _definitions():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.setdefault(node.name, []).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def _re_exports(tree, is_package):
    """Nodes that only re-export: ``__all__`` anywhere, imports in a package."""
    skipped = set()
    for top in tree.body:
        if isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets):
            skipped.update(id(n) for n in ast.walk(top))
        elif is_package and isinstance(top, (ast.Import, ast.ImportFrom)):
            skipped.add(id(top))
    return skipped


def _named():
    names = set()
    for folder in CONSUMERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = _re_exports(tree, path.name == "__init__.py")
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_definition_in_src_has_a_consumer():
    named = _named()
    islands = {
        name: where for name, where in _definitions().items()
        if not (name.startswith("__") and name.endswith("__"))
        and not name.startswith(DISPATCH_PREFIXES)
        and name not in KEEP
        and name not in named
    }
    assert islands == {}, f"defined in src/ but named only by tests: {islands}"


def test_every_kept_name_is_still_an_island():
    # A keep-list entry that gained a consumer, or whose code is gone,
    # no longer needs its reason.
    named = _named()
    defined = _definitions()
    stale = sorted(name for name in KEEP if name not in defined or name in named)
    assert stale == [], f"keep-list entries that are not islands: {stale}"
