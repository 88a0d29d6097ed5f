"""DL20x: TraceBus event-schema cross-check (emitters vs. consumers).

The declarative registry in :mod:`repro.obs.schema` is the single
source of truth for every ``(category, name)`` the simulator may emit.
These rules keep reality in sync with it, in both directions:

======  ==============================================================
DL201   emit side: ``BUS.emit(...)`` with an undeclared event, a
        missing required payload key, an undeclared payload key, or
        the wrong trace phase; plus (project-level) declared events
        whose emitting modules were all scanned but contain no emit
DL202   consumer side: a probe/sanitizer/exporter matching an event
        name, category, or payload key that the registry never declared
DL203   (note) declared, analysis-relevant events that no scanned
        consumer references — informational, never fails a run
======  ==============================================================

Emit sites are found syntactically: calls to ``.emit``/``.counter`` on
something bus-shaped (``BUS``, ``bus``, ``self.bus`` ...).  Dynamic
event names (``request.op.value``, a callback qualname) are resolved
through same-scope string-constant assignments where possible and
otherwise treated as "any declared name in this category" — which is
exactly what the wildcard registry entry expresses for ``engine``.

Consumer matches are comparisons/membership tests against
``event.category`` / ``event.name`` attributes (or locals bound from
them, or the ``category`` / ``name`` parameters of a method named
``trace_emit`` — the TraceBus field protocol), and payload-key lookups
on ``event.args``-derived mappings (or the ``args`` parameter of any
method of a class that defines ``trace_emit``).
String constants may be spelled as literals or as ``CAT_*``/``EV_*``
names imported from :mod:`repro.obs.schema`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import repro.obs.schema as schema
from repro.lint.rules import FileContext, Finding, Rule, scope_walk, scopes_of

#: Attribute names that mark a receiver as a TraceBus handle.
_BUS_ATTRS = frozenset({"bus", "_bus"})
_BUS_NAMES = frozenset({"BUS", "bus", "_bus"})
#: The bus implementation itself is not an instrumentation site.
_SKIP_MODULES = frozenset({"repro.obs.tracebus"})


def _is_bus_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _BUS_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _BUS_ATTRS
    return False


def _string_assignments(scope: ast.AST) -> Dict[str, Set[str]]:
    """Names assigned string constants anywhere in ``scope``."""
    values: Dict[str, Set[str]] = {}
    for node in scope_walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        if not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                values.setdefault(target.id, set()).add(node.value.value)
    return values


class _ConstantResolver:
    """Resolve expressions to string constants (literals or schema names)."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        #: Module/class-level constant tuples: name -> set of strings.
        self.tuples: Dict[str, Set[str]] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            strings = self._literal_tuple(node.value)
            if strings is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.tuples[target.id] = strings

    def _literal_tuple(self, node: ast.AST) -> Optional[Set[str]]:
        # Unwrap frozenset({...}) / set([...]) / tuple((...)) wrappers.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "set", "tuple", "list")
            and len(node.args) == 1
            and not node.keywords
        ):
            node = node.args[0]
        if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return None
        out: Set[str] = set()
        for element in node.elts:
            value = self.resolve(element)
            if value is None:
                return None
            out.add(value)
        return out

    def resolve(self, node: ast.AST) -> Optional[str]:
        """One string constant, through literals and schema constants."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        qualified = self.ctx.qualified_name(node)
        if qualified and qualified.startswith("repro.obs.schema."):
            attr = qualified[len("repro.obs.schema."):]
            value = getattr(schema, attr, None)
            if isinstance(value, str):
                return value
        return None

    def resolve_set(self, node: ast.AST) -> Optional[Set[str]]:
        """A set of string constants (literal, tuple, or named tuple)."""
        single = self.resolve(node)
        if single is not None:
            return {single}
        strings = self._literal_tuple(node)
        if strings is not None:
            return strings
        # A Name or self.ATTR referring to a module/class constant.
        if isinstance(node, ast.Name):
            return self.tuples.get(node.id)
        if isinstance(node, ast.Attribute):
            return self.tuples.get(node.attr)
        return None


# ---------------------------------------------------------------------------
# Emit-site extraction
# ---------------------------------------------------------------------------


class _EmitSite:
    """One ``BUS.emit``/``BUS.counter`` call, resolved as far as possible."""

    def __init__(
        self,
        node: ast.Call,
        category: Optional[str],
        names: Optional[List[str]],  # None = dynamic
        keys_always: Optional[Set[str]],  # None = unresolvable payload
        keys_maybe: Set[str],
        ph: Optional[str],
    ) -> None:
        self.node = node
        self.category = category
        self.names = names
        self.keys_always = keys_always
        self.keys_maybe = keys_maybe
        self.ph = ph


def _emit_argument(call: ast.Call, index: int, keyword: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(call.args) > index:
        return call.args[index]
    return None


def _payload_keys(
    expr: Optional[ast.AST], scope: ast.AST
) -> Tuple[Optional[Set[str]], Set[str]]:
    """(always-present keys, maybe-present keys) of an args expression.

    ``None`` for the first element means the payload could not be
    resolved statically (skip key checking).  Handles dict literals and
    locals assigned a dict literal then extended with constant-key
    subscript assignments (the controller's conditional error keys).
    """
    if expr is None or (isinstance(expr, ast.Constant) and expr.value is None):
        return set(), set()
    if isinstance(expr, ast.Dict):
        keys: Set[str] = set()
        for key in expr.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
            else:  # **expansion or computed key
                return None, set()
        return keys, set()
    if isinstance(expr, ast.Name):
        base: Optional[Set[str]] = None
        maybe: Set[str] = set()
        for node in scope_walk(scope):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == expr.id:
                    resolved, _ = _payload_keys(node.value, scope)
                    base = resolved
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == expr.id
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    maybe.add(target.slice.value)
        return base, maybe
    return None, set()


def _extract_emit_sites(ctx: FileContext) -> List[_EmitSite]:
    sites: List[_EmitSite] = []
    for scope, _ in scopes_of(ctx.tree):
        strings: Optional[Dict[str, Set[str]]] = None
        for node in scope_walk(scope):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            if method not in ("emit", "counter") or not _is_bus_receiver(node.func.value):
                continue
            if method == "counter":
                category: Optional[str] = schema.CAT_COUNTER
                name_expr = _emit_argument(node, 0, "name")
                args_expr = _emit_argument(node, 2, "values")
                ph: Optional[str] = "C"
            else:
                category_expr = _emit_argument(node, 0, "category")
                category = (
                    category_expr.value
                    if isinstance(category_expr, ast.Constant)
                    and isinstance(category_expr.value, str)
                    else None
                )
                name_expr = _emit_argument(node, 1, "name")
                args_expr = _emit_argument(node, 4, "args")
                ph_expr = _emit_argument(node, 6, "ph")
                if ph_expr is None:
                    ph = "X"
                elif isinstance(ph_expr, ast.Constant) and isinstance(ph_expr.value, str):
                    ph = ph_expr.value
                else:
                    ph = None
            names: Optional[List[str]]
            if isinstance(name_expr, ast.Constant) and isinstance(name_expr.value, str):
                names = [name_expr.value]
            elif isinstance(name_expr, ast.Name):
                if strings is None:
                    strings = _string_assignments(scope)
                resolved = strings.get(name_expr.id)
                names = sorted(resolved) if resolved else None
            else:
                names = None
            keys_always, keys_maybe = _payload_keys(args_expr, scope)
            sites.append(_EmitSite(node, category, names, keys_always, keys_maybe, ph))
    return sites


# ---------------------------------------------------------------------------
# DL201 — emit side
# ---------------------------------------------------------------------------


class EmitSchemaRule(Rule):
    code = "DL201"
    summary = "BUS.emit site does not match the event-schema registry"

    def __init__(self) -> None:
        #: (category, name) pairs with a resolved emit site, anywhere.
        self._emitted: Set[Tuple[str, str]] = set()
        #: Categories with a dynamically named emit site.
        self._dynamic: Set[str] = set()
        self._scanned_modules: Set[str] = set()
        #: module -> path of the first scanned file, for anchoring
        #: project-level findings.
        self._module_paths: Dict[str, str] = {}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module is not None:
            self._scanned_modules.add(ctx.module)
            self._module_paths.setdefault(ctx.module, ctx.path)
        if ctx.module in _SKIP_MODULES:
            return
        for site in _extract_emit_sites(ctx):
            yield from self._check_site(ctx, site)

    def _check_site(self, ctx: FileContext, site: _EmitSite) -> Iterator[Finding]:
        category = site.category
        if category is None:
            return  # dynamic category: nothing checkable statically
        if category not in schema.CATEGORIES:
            yield self.finding(
                ctx, site.node,
                f"emit into undeclared TraceBus category {category!r}; declare "
                "the event in repro/obs/schema.py",
            )
            return
        if site.names is None:
            # Dynamically named: legal iff the category declares a
            # wildcard or the dynamic names are checked elsewhere (the
            # host completion events are declared one by one).
            self._dynamic.add(category)
            return
        for name in site.names:
            declared = schema.lookup(category, name)
            if declared is None:
                yield self.finding(
                    ctx, site.node,
                    f"emit of undeclared event {category}/{name}; declare it "
                    "in repro/obs/schema.py",
                )
                continue
            self._emitted.add((category, name))
            if declared.name != schema.WILDCARD:
                yield from self._check_payload(ctx, site, declared)
            if site.ph is not None and site.ph != declared.ph:
                yield self.finding(
                    ctx, site.node,
                    f"event {category}/{name} emitted with phase {site.ph!r} "
                    f"but declared {declared.ph!r}",
                )

    def _check_payload(
        self, ctx: FileContext, site: _EmitSite, declared: "schema.EventSchema"
    ) -> Iterator[Finding]:
        if site.keys_always is None:
            return  # payload not statically resolvable
        for key in sorted(set(declared.required) - site.keys_always):
            yield self.finding(
                ctx, site.node,
                f"event {declared.category}/{declared.name} emitted without "
                f"required payload key {key!r}",
            )
        for key in sorted((site.keys_always | site.keys_maybe) - declared.keys):
            yield self.finding(
                ctx, site.node,
                f"event {declared.category}/{declared.name} emitted with "
                f"undeclared payload key {key!r}",
            )

    def finish(self) -> Iterator[Finding]:
        for (category, name), declared in sorted(schema.REGISTRY.items()):
            if not declared.modules:
                continue
            if not all(m in self._scanned_modules for m in declared.modules):
                continue  # emitter not part of this run
            if (category, name) in self._emitted or category in self._dynamic:
                continue
            if name == schema.WILDCARD and category in self._dynamic:
                continue
            path = self._module_paths.get(declared.modules[0], declared.modules[0])
            yield Finding(
                path=path, line=1, col=1, code=self.code,
                message=(
                    f"declared event {category}/{name} is never emitted by "
                    f"{', '.join(declared.modules)}; remove the declaration or "
                    "restore the emit site"
                ),
            )


# ---------------------------------------------------------------------------
# DL202 / DL203 — consumer side
# ---------------------------------------------------------------------------


class _ConsumerScan:
    """Event references made inside one function scope."""

    def __init__(self) -> None:
        #: category -> the first Compare node that matched it.
        self.categories: Dict[str, ast.AST] = {}
        self.names: List[Tuple[ast.AST, str]] = []
        self.keys: List[Tuple[ast.AST, str]] = []


#: Receiver names that mark an attribute read as a TraceEvent field
#: access (``event.name``) rather than any other ``.name`` attribute.
_EVENT_RECEIVERS = frozenset({"event", "ev", "evt"})


def _is_event_receiver(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in _EVENT_RECEIVERS


def _attr_kind(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """'category' / 'name' when ``node`` reads an event identity field."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr in ("category", "name")
        and _is_event_receiver(node.value)
    ):
        return node.attr
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def _scan_consumers(ctx: FileContext, resolver: _ConstantResolver) -> List[_ConsumerScan]:
    scans: List[_ConsumerScan] = []
    scopes = scopes_of(ctx.tree)
    # Classes that take events as fields (``trace_emit``, the TraceBus
    # protocol): their methods receive the payload as an ``args`` parameter.
    field_classes = {
        cls for scope, cls in scopes
        if cls is not None and getattr(scope, "name", None) == "trace_emit"
    }
    for scope, cls in scopes:
        scan = _ConsumerScan()
        # Locals aliased from event fields: ``category = event.category``
        # and args-derived mappings: ``args = event.args or {}``.
        field_aliases: Dict[str, str] = {}
        args_names: Set[str] = set()
        if cls in field_classes and isinstance(scope, ast.FunctionDef):
            params = {arg.arg for arg in scope.args.args}
            args_names.update(params & {"args"})
            if scope.name == "trace_emit":
                # ``trace_emit(category, name, ...)`` receives the event's
                # identity fields, so its comparisons are consumer matches.
                field_aliases.update((p, p) for p in params & {"category", "name"})
        for node in scope_walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    value = node.value
                    if (
                        isinstance(value, ast.Attribute)
                        and value.attr in ("category", "name")
                        and _is_event_receiver(value.value)
                    ):
                        field_aliases[target.id] = value.attr
                    elif _is_args_expr(value, args_names):
                        args_names.add(target.id)
        for node in scope_walk(scope):
            if isinstance(node, ast.Compare):
                _scan_compare(node, scan, field_aliases, resolver)
            elif isinstance(node, ast.Call):
                _scan_args_get(node, scan, args_names)
            elif isinstance(node, ast.Subscript):
                _scan_args_subscript(node, scan, args_names)
        if scan.categories or scan.names or scan.keys:
            scans.append(scan)
    return scans


def _is_args_expr(node: ast.AST, args_names: Set[str]) -> bool:
    """``event.args``, a name bound to a payload, or either ``or {}``."""
    if isinstance(node, ast.Name):
        return node.id in args_names
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "args"
        and _is_event_receiver(node.value)
    ):
        return True
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        return any(_is_args_expr(value, args_names) for value in node.values)
    return False


def _scan_compare(
    node: ast.Compare,
    scan: _ConsumerScan,
    field_aliases: Dict[str, str],
    resolver: _ConstantResolver,
) -> None:
    operands = [node.left] + list(node.comparators)
    for op, left, right in zip(node.ops, operands, operands[1:]):
        if isinstance(op, (ast.Eq, ast.NotEq)):
            pairs = ((left, right), (right, left))
        elif isinstance(op, (ast.In, ast.NotIn)):
            pairs = ((left, right),)
        else:
            continue
        for field_node, const_node in pairs:
            kind = _attr_kind(field_node, field_aliases)
            if kind is None:
                continue
            values = resolver.resolve_set(const_node)
            if values is None:
                continue
            if kind == "category":
                for value in sorted(values):
                    scan.categories.setdefault(value, node)
            else:
                for value in sorted(values):
                    scan.names.append((node, value))
            break


def _scan_args_get(node: ast.Call, scan: _ConsumerScan, args_names: Set[str]) -> None:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "get" and node.args):
        return
    if not _is_args_expr(func.value, args_names):
        return
    key = node.args[0]
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        scan.keys.append((node, key.value))


def _scan_args_subscript(node: ast.Subscript, scan: _ConsumerScan, args_names: Set[str]) -> None:
    if not _is_args_expr(node.value, args_names):
        return
    key = node.slice
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        scan.keys.append((node, key.value))


class ConsumerSchemaRule(Rule):
    code = "DL202"
    codes = ("DL202", "DL203")
    summary = "consumer-side event match not declared in the schema registry"

    def __init__(self) -> None:
        self._scanned_modules: Set[str] = set()
        #: name -> categories it was matched under.
        self._consumed_names: Dict[str, Set[str]] = {}
        #: Names matched in a scope with no category context: they
        #: count as consumed under every category (the sanitizer's
        #: per-category handlers match names in their own scope).
        self._consumed_any: Set[str] = set()
        self._consumed_categories: Set[str] = set()
        self._schema_path = "src/repro/obs/schema.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module is not None:
            self._scanned_modules.add(ctx.module)
        if ctx.module == "repro.obs.schema":
            self._schema_path = ctx.path
            return
        if ctx.module in _SKIP_MODULES:
            return
        resolver = _ConstantResolver(ctx)
        for scan in _scan_consumers(ctx, resolver):
            categories = sorted(scan.categories)
            known_names = self._names_for(categories)
            known_keys = schema.payload_keys(categories or None)
            self._consumed_categories.update(categories)
            for category in categories:
                if category not in schema.CATEGORIES:
                    yield self.finding(
                        ctx, scan.categories[category],
                        f"consumer matches undeclared TraceBus category "
                        f"{category!r}",
                    )
            for node, name in scan.names:
                if categories:
                    self._consumed_names.setdefault(name, set()).update(categories)
                else:
                    self._consumed_any.add(name)
                if name not in known_names:
                    where = (
                        f"in categories {categories}"
                        if categories else "in any category"
                    )
                    yield self.finding(
                        ctx, node,
                        f"consumer matches event name {name!r} which is not "
                        f"declared {where}; probes silently match nothing",
                    )
            for node, key in scan.keys:
                if key not in known_keys:
                    where = (
                        f"of events in categories {categories}"
                        if categories else "of any declared event"
                    )
                    yield self.finding(
                        ctx, node,
                        f"consumer reads payload key {key!r} which is not "
                        f"declared {where}",
                    )

    @staticmethod
    def _names_for(categories: Sequence[str]) -> Set[str]:
        if categories:
            names: Set[str] = set()
            for category in categories:
                names |= schema.names_in(category)
            return names
        return {
            declared.name
            for declared in schema.REGISTRY.values()
            if declared.name != schema.WILDCARD
        }

    def finish(self) -> Iterator[Finding]:
        if not all(m in self._scanned_modules for m in schema.CONSUMER_MODULES):
            return  # consumers not part of this run; note would be noise
        for (category, name), declared in sorted(schema.REGISTRY.items()):
            if declared.export_only:
                continue
            if name in self._consumed_any:
                continue
            if category in self._consumed_names.get(name, ()):
                continue
            if name == schema.WILDCARD and category in self._consumed_categories:
                continue
            yield Finding(
                path=self._schema_path, line=1, col=1, code="DL203",
                message=(
                    f"declared event {category}/{name} is not referenced by "
                    "any scanned consumer; mark it export_only or wire up a "
                    "consumer"
                ),
                severity="note",
            )
