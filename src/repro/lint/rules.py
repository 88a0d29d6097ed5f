"""Determinism lint rules (the ``DL1xx`` catalogue).

A discrete-event simulator is only trustworthy if two runs of the same
configuration are bit-identical.  Every rule here statically forbids a
construct that historically breaks that property in FTL simulators
(WiscSee's reproducibility notes, Copycat's state-machine checks):

======  ========================================================
DL101   wall-clock read (``time.time()``, ``datetime.now()``, ...)
DL102   module-level / unseeded ``random`` (shared global RNG state)
DL103   ordering-sensitive iteration over a ``set`` / ``dict.keys()``
DL104   float equality on simulated timestamps
DL105   mutable default argument in simulator packages
======  ========================================================

Rules are pluggable: subclass :class:`Rule`, set a stable ``code``, and
register the class in :data:`ALL_RULES`.  Each rule receives a
:class:`FileContext` (parsed AST + import alias map) and yields
:class:`Finding` records; suppression via ``# dl: disable=CODE``
pragmas happens in :mod:`repro.lint.runner`, not here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Finding:
    """One lint violation, anchored to a source position."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: ``"error"`` findings fail the run; ``"note"`` findings are
    #: informational (reported separately, exit code unaffected).
    severity: str = "error"

    def render(self) -> str:
        label = f"{self.code} note:" if self.severity == "note" else self.code
        return f"{self.path}:{self.line}:{self.col}: {label} {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "severity": self.severity,
        }


class FileContext:
    """Everything a rule needs to know about one source file."""

    def __init__(
        self, path: str, tree: ast.Module, source: str, module: Optional[str]
    ) -> None:
        self.path = path
        self.tree = tree
        self.source = source
        #: Dotted module name when the file lives under ``repro`` (e.g.
        #: ``repro.ftl.base``), else None.
        self.module = module
        self.aliases = _import_aliases(tree)

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve ``np.random.rand`` -> ``numpy.random.rand`` etc.

        Walks an attribute chain down to its root Name and maps the
        root through the file's import aliases.  Returns None for
        anything that is not a plain dotted name (calls, subscripts).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted names they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import time as now`` -> ``{"now": "time.time"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name != "*":
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope (a module or a function body) without descending
    into nested functions."""
    stack: List[ast.AST] = list(getattr(scope, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def scopes_of(tree: ast.Module) -> List[Tuple[ast.AST, Optional[str]]]:
    """The module and every function in it (the scopes :func:`scope_walk`
    walks), each with the name of the class it is defined in, if any; a
    function nested in a method keeps the method's class."""
    scopes: List[Tuple[ast.AST, Optional[str]]] = [(tree, None)]

    def descend(node: ast.AST, class_name: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((child, class_name))
                descend(child, class_name)
            else:
                descend(child, child.name if isinstance(child, ast.ClassDef) else class_name)

    descend(tree, None)
    return scopes


class Rule:
    """Base class for a lint rule with a stable code."""

    #: Stable rule code (``DL1xx``); used in output and pragmas.
    code: str = ""
    #: Every code this rule can emit.  Single-code rules leave this
    #: empty; multi-code rules (the DL20x schema cross-check) list all.
    codes: Tuple[str, ...] = ()
    #: One-line summary for the catalogue / ``--list-rules``.
    summary: str = ""
    #: When set, the rule only applies to files whose module starts
    #: with one of these prefixes.  Files outside the ``repro`` package
    #: (fixtures, scripts) always get every rule.
    packages: Optional[Tuple[str, ...]] = None

    def all_codes(self) -> Tuple[str, ...]:
        return self.codes or (self.code,)

    def applies_to(self, ctx: FileContext) -> bool:
        if self.packages is None or ctx.module is None:
            return True
        return any(
            ctx.module == p or ctx.module.startswith(p + ".") for p in self.packages
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finish(self) -> Iterator[Finding]:
        """Project-level findings after every file was checked.

        Cross-file rules accumulate state in :meth:`check` and report
        here; rule instances are constructed fresh for each run, so
        the state never leaks between runs.
        """
        return iter(())

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        *,
        code: Optional[str] = None,
        severity: str = "error",
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code or self.code,
            message=message,
            severity=severity,
        )


# ---------------------------------------------------------------------------
# DL101 — wall-clock reads
# ---------------------------------------------------------------------------

#: Functions whose return value depends on the host clock.  Simulated
#: time lives on ``Engine.now`` / the ``start``/``now`` parameters; any
#: of these leaking into sim state makes runs non-reproducible.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    code = "DL101"
    summary = "wall-clock read in simulation code"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualified_name(node.func)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {name}() — simulated time must come from the "
                    "engine clock; suppress with a pragma only for host-side "
                    "wall-time measurement",
                )


# ---------------------------------------------------------------------------
# DL102 — unseeded / module-level random
# ---------------------------------------------------------------------------

#: ``random`` module-level functions: they share one hidden global RNG,
#: so any import-order or call-order change reshuffles every consumer.
RANDOM_MODULE_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "triangular",
        "betavariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "seed",
    }
)

#: numpy.random attributes that are *not* the legacy global RNG.
NUMPY_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "RandomState", "SeedSequence", "PCG64", "MT19937", "Philox", "BitGenerator"}
)


class UnseededRandomRule(Rule):
    code = "DL102"
    summary = "module-level or unseeded random source"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualified_name(node.func)
            if name is None:
                continue
            if name.startswith("random."):
                attr = name.split(".", 1)[1]
                if attr in RANDOM_MODULE_FUNCS:
                    yield self.finding(
                        ctx,
                        node,
                        f"{name}() uses the shared module-level RNG; construct a "
                        "seeded random.Random(seed) instance instead",
                    )
                elif attr == "SystemRandom":
                    yield self.finding(
                        ctx, node, "random.SystemRandom is entropy-backed and never reproducible"
                    )
                elif attr == "Random" and not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node, "random.Random() without a seed draws from OS entropy"
                    )
            elif name.startswith("numpy.random."):
                attr = name.split("numpy.random.", 1)[1]
                if attr == "default_rng" and not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node, "numpy.random.default_rng() without a seed draws from OS entropy"
                    )
                elif attr == "RandomState" and not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node, "numpy.random.RandomState() without a seed draws from OS entropy"
                    )
                elif attr not in NUMPY_RANDOM_OK:
                    yield self.finding(
                        ctx,
                        node,
                        f"{name}() uses numpy's legacy global RNG; pass a seeded "
                        "numpy.random.Generator through instead",
                    )


# ---------------------------------------------------------------------------
# DL103 — ordering-sensitive iteration over sets
# ---------------------------------------------------------------------------


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    )


def _is_total_key(key: ast.AST) -> bool:
    """A ``lambda x: (..., x)`` key is total: ties are impossible because
    the element itself is part of the comparison tuple."""
    if not (isinstance(key, ast.Lambda) and key.args.args):
        return False
    arg = key.args.args[0].arg
    body = key.body
    if not isinstance(body, ast.Tuple):
        return False
    return any(isinstance(el, ast.Name) and el.id == arg for el in body.elts)


class _ScopeSetNames(ast.NodeVisitor):
    """Collect names bound to set expressions within one function scope."""

    def __init__(self) -> None:
        self.names: set = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        annotation = ast.unparse(node.annotation) if node.annotation else ""
        if isinstance(node.target, ast.Name) and (
            annotation.startswith("set") or annotation.startswith("Set") or annotation.startswith("frozenset")
        ):
            self.names.add(node.target.id)
        elif isinstance(node.target, ast.Name) and node.value is not None and _is_set_expr(node.value):
            self.names.add(node.target.id)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scopes are analysed separately

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


class SetIterationRule(Rule):
    code = "DL103"
    summary = "ordering-sensitive iteration over a set / dict.keys()"

    #: Calls whose result depends on the argument's iteration order.
    ORDER_SENSITIVE_CALLS = ("list", "tuple", "enumerate", "iter", "next")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope, _ in scopes_of(ctx.tree):
            yield from self._check_scope(ctx, scope)

    def _check_scope(self, ctx: FileContext, scope: ast.AST) -> Iterator[Finding]:
        collector = _ScopeSetNames()
        body = scope.body if hasattr(scope, "body") else []
        for stmt in body:
            collector.visit(stmt)
        set_names = collector.names
        # Parameters annotated as sets count too: ``def f(planes: set)``.
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None:
                    annotation = ast.unparse(arg.annotation)
                    if annotation.startswith(("set", "Set", "frozenset", "FrozenSet")):
                        set_names.add(arg.arg)

        def is_set_like(node: ast.AST) -> bool:
            if _is_set_expr(node) or _is_keys_call(node):
                return True
            return isinstance(node, ast.Name) and node.id in set_names

        for node in scope_walk(scope):
            if isinstance(node, ast.For) and is_set_like(node.iter):
                yield self.finding(
                    ctx,
                    node.iter,
                    "iterating a set in a for loop is ordering-sensitive; "
                    "iterate sorted(...) instead",
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if is_set_like(gen.iter):
                        yield self.finding(
                            ctx,
                            gen.iter,
                            "comprehension over a set is ordering-sensitive; "
                            "iterate sorted(...) instead",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                fn = node.func.id
                if fn in self.ORDER_SENSITIVE_CALLS and node.args and is_set_like(node.args[0]):
                    yield self.finding(
                        ctx,
                        node,
                        f"{fn}() over a set depends on hash iteration order; "
                        "sort first (sorted(...))",
                    )
                elif (
                    fn in ("min", "max")
                    and node.args
                    and is_set_like(node.args[0])
                    and any(
                        kw.arg == "key" and not _is_total_key(kw.value)
                        for kw in node.keywords
                    )
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{fn}(set, key=...) breaks ties by set iteration order; "
                        "make the key total (e.g. a (value, id) tuple) or sort first",
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and not node.args
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in set_names
            ):
                yield self.finding(
                    ctx,
                    node,
                    "set.pop() removes an arbitrary element; pop from a sorted "
                    "list or deque instead",
                )


# ---------------------------------------------------------------------------
# DL104 — float equality on simulated timestamps
# ---------------------------------------------------------------------------

#: Bare names that (by project convention) hold simulated timestamps.
TIMESTAMP_NAMES = frozenset({"t", "now", "ts", "start", "end", "deadline", "arrival", "completion"})
TIMESTAMP_SUFFIXES = ("_us", "_ms")


def _is_timestamp_operand(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name in TIMESTAMP_NAMES or name.endswith(TIMESTAMP_SUFFIXES)


class FloatTimeEqualityRule(Rule):
    code = "DL104"
    summary = "float equality comparison on simulated timestamps"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_timestamp_operand(left) or _is_timestamp_operand(right):
                    yield self.finding(
                        ctx,
                        node,
                        "exact ==/!= on a simulated timestamp accumulates float "
                        "error across event chains; compare with a tolerance or "
                        "restructure to integer ticks",
                    )


# ---------------------------------------------------------------------------
# DL105 — mutable default arguments
# ---------------------------------------------------------------------------


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict")
    return False


class MutableDefaultRule(Rule):
    code = "DL105"
    summary = "mutable default argument in simulator packages"
    packages = ("repro.sim", "repro.ftl", "repro.flash", "repro.controller", "repro.core")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for default in list(node.args.defaults) + [d for d in node.args.kw_defaults if d is not None]:
                if _is_mutable_default(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {node.name}() is shared "
                        "across calls (and simulations); default to None and "
                        "construct inside",
                    )


#: The determinism (DL1xx) half of the catalogue.  The full catalogue —
#: including the DL2xx schema and dataflow rules, which live in their
#: own modules — is assembled as ``ALL_RULES`` in
#: :mod:`repro.lint.runner`.
DETERMINISM_RULES: Sequence[Rule] = (
    WallClockRule(),
    UnseededRandomRule(),
    SetIterationRule(),
    FloatTimeEqualityRule(),
    MutableDefaultRule(),
)
