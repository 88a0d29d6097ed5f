"""DL210: address-domain / time-unit dataflow analysis.

An FTL shuffles integers between half a dozen incompatible address
spaces — logical page numbers, physical page numbers, physical block
numbers, plane and channel indices — plus two time units (simulated
microseconds everywhere, milliseconds only at reporting edges).  All of
them are plain ``int``/``float`` at runtime, so a swapped argument pair
or an ``lpn`` compared against a ``ppn`` is silently wrong: the
simulation keeps running and just produces subtly broken timings
(exactly the failure mode DLOOP's plane-level bookkeeping is most
sensitive to).

``DomainFlowRule`` runs a small intraprocedural abstract
interpretation per function scope:

* names acquire a domain from naming conventions — an exact token or a
  ``_token`` suffix (``lpn``, ``victim_pbn``, ``dst_plane``) for the
  address domains, and ``_us`` / ``_ms`` suffixes for time units;
  names containing ``_per_`` never acquire a domain (``pages_per_block``
  is a ratio, not a block number);
* domains propagate through simple assignment, ``+``/``-`` (adding an
  untyped offset keeps the domain) and unary ops; multiplication,
  division and modulo *clear* the domain — they are how domains are
  legitimately derived and converted (``ppn = pbn * ppb + off``,
  ``x_ms = x_us / 1000``);
* ``# dl: domain(name=lpn, other=us)`` comments pin a name's domain in
  the enclosing scope, overriding inference (``domain(name=any)``
  opts a name out entirely);
* string payload keys carry the domain their schema declares by name:
  ``args["lpn"]`` is an lpn.

Flagged (all ``DL210`` errors):

* ``+``/``-`` between two different address domains, or between µs and
  ms (``page_offset`` is exempt from arithmetic: adding a page offset
  to any address is how addresses are built);
* ordered/equality comparison across domains;
* assigning a value of one domain to a name of another;
* passing a value of one domain to a parameter named for another —
  keyword arguments on any call, positional arguments when the callee
  is defined in the same file, and dict literals with domain-named
  string keys (the TraceBus payload pattern);
* ``min``/``max`` over operands of incompatible domains;
* a ``# dl: domain(...)`` annotation naming an unknown domain.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.rules import FileContext, Finding, Rule, scope_walk, scopes_of

#: The mutually incompatible address domains.
ADDRESS_DOMAINS = frozenset(
    {"lpn", "ppn", "pbn", "lbn", "tvpn", "plane", "channel", "page_offset"}
)
TIME_DOMAINS = frozenset({"us", "ms"})
#: ``any`` is the explicit opt-out: compatible with everything.
KNOWN_DOMAINS = ADDRESS_DOMAINS | TIME_DOMAINS | {"any"}

#: Name tokens that imply an address domain (exact or ``_token`` suffix).
_NAME_TOKENS: Tuple[Tuple[str, str], ...] = tuple(
    (token, token) for token in sorted(ADDRESS_DOMAINS)
)

_ANNOTATION_RE = re.compile(r"#\s*dl:\s*domain\((?P<body>[^)]*)\)")


def infer_domain(name: str) -> Optional[str]:
    """The domain a bare name implies, or None."""
    lowered = name.lower()
    if "_per_" in lowered:
        return None
    if lowered.endswith("_us"):
        return "us"
    if lowered.endswith("_ms"):
        return "ms"
    for token, domain in _NAME_TOKENS:
        if lowered == token or lowered.endswith("_" + token):
            return domain
    return None


def incompatible(a: Optional[str], b: Optional[str], *, arithmetic: bool = False) -> bool:
    """True when mixing domains ``a`` and ``b`` is a DL210 violation."""
    if a is None or b is None or a == b or "any" in (a, b):
        return False
    if arithmetic and "page_offset" in (a, b):
        return False  # offsets legitimately add onto any address
    return True


def _parse_annotations(source: str) -> Dict[int, Dict[str, str]]:
    """line number -> {name: domain} from ``# dl: domain(...)`` comments."""
    out: Dict[int, Dict[str, str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "dl:" not in line:
            continue
        match = _ANNOTATION_RE.search(line)
        if not match:
            continue
        pairs: Dict[str, str] = {}
        for item in match.group("body").split(","):
            if "=" not in item:
                continue
            name, _, domain = item.partition("=")
            pairs[name.strip()] = domain.strip()
        if pairs:
            out[lineno] = pairs
    return out


class _Scope:
    """One function (or module) scope under analysis."""

    def __init__(self, node: ast.AST, class_name: Optional[str]) -> None:
        self.node = node
        self.class_name = class_name
        #: name -> domain, from params, assignments and annotations.
        self.env: Dict[str, str] = {}

    def lines(self) -> Tuple[int, int]:
        start = getattr(self.node, "lineno", 1)
        end = getattr(self.node, "end_lineno", None) or start
        return start, end


def _callable_params(fn: ast.AST, *, method: bool) -> List[str]:
    args = fn.args  # type: ignore[attr-defined]
    names = [a.arg for a in [*args.posonlyargs, *args.args]]
    if method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


class DomainFlowRule(Rule):
    code = "DL210"
    summary = "cross-domain address / time-unit dataflow"
    packages = (
        "repro.sim",
        "repro.flash",
        "repro.ftl",
        "repro.controller",
        "repro.core",
        "repro.faults",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        annotations = _parse_annotations(ctx.source)
        yield from self._check_annotations(ctx, annotations)
        functions, methods = self._collect_callables(ctx.tree)
        for node, class_name in scopes_of(ctx.tree):
            scope = _Scope(node, class_name)
            self._bind_scope(scope, annotations)
            yield from self._check_scope(ctx, scope, functions, methods)

    def _collect_callables(
        self, tree: ast.Module
    ) -> Tuple[Dict[str, ast.AST], Dict[Tuple[str, str], ast.AST]]:
        """Module-level functions and (class, method) definitions."""
        functions: Dict[str, ast.AST] = {}
        methods: Dict[Tuple[str, str], ast.AST] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        methods[(node.name, item.name)] = item
        return functions, methods

    def _bind_scope(self, scope: _Scope, annotations: Dict[int, Dict[str, str]]) -> None:
        env = scope.env
        node = scope.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                domain = infer_domain(arg.arg)
                if domain is not None:
                    env[arg.arg] = domain
        for stmt in scope_walk(node):
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            elif isinstance(stmt, ast.For):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    domain = infer_domain(target.id)
                    if domain is not None:
                        env.setdefault(target.id, domain)
        # Value-flow: an untyped name assigned a typed value carries
        # the value's domain (one round; textual order is close enough
        # for straight-line simulator code).
        for stmt in scope_walk(node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name) or target.id in env:
                continue
            domain = self._expr_domain(stmt.value, env)
            if domain is not None:
                env[target.id] = domain
        # Annotations inside this scope's line range win over inference.
        start, end = scope.lines()
        for lineno, pairs in annotations.items():
            if start <= lineno <= end:
                for name, domain in pairs.items():
                    if domain in KNOWN_DOMAINS:
                        env[name] = domain

    # -- expression domains -------------------------------------------------

    def _expr_domain(self, node: ast.AST, env: Dict[str, str]) -> Optional[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id) or infer_domain(node.id)
        if isinstance(node, ast.Attribute):
            return infer_domain(node.attr)
        if isinstance(node, ast.Subscript):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return infer_domain(key.value)
            return None
        if isinstance(node, ast.UnaryOp):
            return self._expr_domain(node.operand, env)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                left = self._expr_domain(node.left, env)
                right = self._expr_domain(node.right, env)
                # Adding a page offset yields whatever the base is (an
                # unknown base stays unknown — never an offset).
                if left == "page_offset":
                    return right
                if right == "page_offset":
                    return left
                return left or right
            return None  # *, /, //, % derive or convert domains
        if isinstance(node, ast.IfExp):
            body = self._expr_domain(node.body, env)
            orelse = self._expr_domain(node.orelse, env)
            return body if body == orelse else None
        return None

    # -- checks -------------------------------------------------------------

    def _check_annotations(
        self, ctx: FileContext, annotations: Dict[int, Dict[str, str]]
    ) -> Iterator[Finding]:
        for lineno in sorted(annotations):
            for name, domain in annotations[lineno].items():
                if domain not in KNOWN_DOMAINS:
                    yield Finding(
                        path=ctx.path, line=lineno, col=1, code=self.code,
                        message=(
                            f"# dl: domain(...) annotation gives {name!r} "
                            f"unknown domain {domain!r}; known: "
                            f"{sorted(KNOWN_DOMAINS)}"
                        ),
                    )

    def _check_scope(
        self,
        ctx: FileContext,
        scope: _Scope,
        functions: Dict[str, ast.AST],
        methods: Dict[Tuple[str, str], ast.AST],
    ) -> Iterator[Finding]:
        env = scope.env
        for node in scope_walk(scope.node):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                left = self._expr_domain(node.left, env)
                right = self._expr_domain(node.right, env)
                if incompatible(left, right, arithmetic=True):
                    yield self.finding(
                        ctx, node,
                        f"arithmetic mixes {left} and {right} operands; convert "
                        "explicitly or annotate with # dl: domain(...)",
                    )
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node, env)
            elif isinstance(node, ast.Assign):
                value_domain = self._expr_domain(node.value, env)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        target_domain = env.get(target.id) or infer_domain(target.id)
                        if incompatible(target_domain, value_domain):
                            yield self.finding(
                                ctx, node,
                                f"assigning a {value_domain} value to "
                                f"{target.id!r} ({target_domain})",
                            )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                if isinstance(node.target, ast.Name):
                    target_domain = env.get(node.target.id) or infer_domain(node.target.id)
                    value_domain = self._expr_domain(node.value, env)
                    if incompatible(target_domain, value_domain, arithmetic=True):
                        yield self.finding(
                            ctx, node,
                            f"augmented assignment mixes {target_domain} "
                            f"({node.target.id!r}) with a {value_domain} value",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, scope, env, functions, methods)
            elif isinstance(node, ast.Dict):
                yield from self._check_dict(ctx, node, env)

    def _check_compare(
        self, ctx: FileContext, node: ast.Compare, env: Dict[str, str]
    ) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                continue
            left_domain = self._expr_domain(left, env)
            right_domain = self._expr_domain(right, env)
            if incompatible(left_domain, right_domain):
                yield self.finding(
                    ctx, node,
                    f"comparison mixes {left_domain} and {right_domain} values; "
                    "the result is meaningless across address/time domains",
                )

    def _check_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        scope: _Scope,
        env: Dict[str, str],
        functions: Dict[str, ast.AST],
        methods: Dict[Tuple[str, str], ast.AST],
    ) -> Iterator[Finding]:
        # Keyword arguments: the parameter name declares the domain.
        for kw in node.keywords:
            if kw.arg is None:
                continue
            param_domain = infer_domain(kw.arg)
            value_domain = self._expr_domain(kw.value, env)
            if incompatible(param_domain, value_domain):
                yield self.finding(
                    ctx, node,
                    f"keyword argument {kw.arg}= ({param_domain}) receives a "
                    f"{value_domain} value",
                )
        # min/max must not mix domains.
        if isinstance(node.func, ast.Name) and node.func.id in ("min", "max"):
            domains = [self._expr_domain(a, env) for a in node.args]
            known = [d for d in domains if d is not None and d != "any"]
            for other in known[1:]:
                if incompatible(known[0], other):
                    yield self.finding(
                        ctx, node,
                        f"{node.func.id}() mixes {known[0]} and {other} operands",
                    )
                    break
        # Positional arguments, when the callee is defined in this file.
        callee: Optional[ast.AST] = None
        method = False
        func = node.func
        if isinstance(func, ast.Name):
            callee = functions.get(func.id)
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and scope.class_name is not None
        ):
            callee = methods.get((scope.class_name, func.attr))
            method = True
        if callee is None:
            return
        params = _callable_params(callee, method=method)
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred) or index >= len(params):
                break
            param_domain = infer_domain(params[index])
            value_domain = self._expr_domain(arg, env)
            if incompatible(param_domain, value_domain):
                yield self.finding(
                    ctx, node,
                    f"argument {index + 1} of {params and _call_name(node)}() is "
                    f"{params[index]!r} ({param_domain}) but receives a "
                    f"{value_domain} value",
                )

    def _check_dict(
        self, ctx: FileContext, node: ast.Dict, env: Dict[str, str]
    ) -> Iterator[Finding]:
        for key, value in zip(node.keys, node.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            key_domain = infer_domain(key.value)
            value_domain = self._expr_domain(value, env)
            if incompatible(key_domain, value_domain):
                yield self.finding(
                    ctx, key,
                    f"dict key {key.value!r} ({key_domain}) holds a "
                    f"{value_domain} value",
                )


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return "<call>"
