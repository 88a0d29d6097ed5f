"""Island guard: every function and class in ``src/`` has a consumer.

A definition that only tests call is an island: the suite keeps it
working while no run, benchmark, example or perfbench workload ever
executes it.  The scan asks that every non-dunder ``def``/``class`` in
``src/`` be named somewhere in ``src/``, ``benchmarks/``, ``examples/``
or ``perfbench/`` -- as a name, an attribute, an import or a string
constant (``getattr`` and the FTL registry look classes up by string).
A method (a ``def`` in a class body) is reached through an object, so
only an attribute or a string names it: a local variable or an import
that shares its name does not.  A package's re-export (its imports and
``__all__``) is not a consumer.
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
    "step": "Engine.step: the single-step seam the engine tests drive, whose loop Engine.run inlines",
    "mapped_lpns": "Ftl's logical view a caller compares FTLs through",
    "log_blocks_in_use": "hybrid FTLs' log-pool occupancy, bounded by the pool size",
    "retired_fraction": "bad-block manager's wear gauge (docs/robustness.md)",
    "remaining_life_fraction": "bad-block manager's wear gauge (docs/robustness.md)",
    "subscriber_count": "TraceBus state that shows a run unsubscribed what it attached",
    # the other half of a format src/ reads or writes
    "save_config": "writes the experiment-config JSON that `repro-sim simulate --config` loads",
    "parse_disksim": "list form of iter_disksim, the twin of parse_spc",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions():
    """name -> [(where, is_method)] for every def/class in ``src/``."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {
            id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                found.setdefault(node.name, []).append(
                    (f"{path.relative_to(ROOT)}:{node.lineno}", id(node) in methods))
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
    """(every name in any form, the names used as an attribute or a string)."""
    names, reached = set(), set()
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
                    reached.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    reached.add(node.value)
    return names | reached, reached


def _unconsumed(definitions, named):
    """name -> the definitions of it that nothing outside the tests names."""
    anywhere, reached = named
    found = {}
    for name, defs in definitions.items():
        where = [w for w, is_method in defs
                 if name not in (reached if is_method else anywhere)]
        if where:
            found[name] = where
    return found


def test_every_definition_in_src_has_a_consumer():
    islands = {
        name: where for name, where in _unconsumed(_definitions(), _named()).items()
        if not (name.startswith("__") and name.endswith("__"))
        and not name.startswith(DISPATCH_PREFIXES)
        and name not in KEEP
    }
    assert islands == {}, f"defined in src/ but named only by tests: {islands}"


def test_every_kept_name_is_still_an_island():
    # A keep-list entry that gained a consumer, or whose code is gone,
    # no longer needs its reason.
    unconsumed = _unconsumed(_definitions(), _named())
    stale = sorted(name for name in KEEP if name not in unconsumed)
    assert stale == [], f"keep-list entries that are not islands: {stale}"
