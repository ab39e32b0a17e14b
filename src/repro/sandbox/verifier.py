"""AST-level verification of shipped agent code.

Analogue of the Java byte-code verifier (section 3.2, component 1): agent
code arriving over the network is statically checked *before* it is
loaded, and rejected if it could express an operation that escapes the
encapsulation model.  The verifier collects **all** violations (not just
the first) so a rejected transfer can be diagnosed in one round trip.

What is rejected, and the escape it blocks:

====================================  =======================================
construct                             escape vector
====================================  =======================================
``import`` outside the allowlist      filesystem / os / network access
dunder & underscore attributes        ``__class__``/``__globals__`` ladders,
                                      "private" state of proxies
banned builtins (``eval``, ``exec``,  dynamic code, reflection, attribute
``getattr``, ``type``, ...)           forging, import machinery
``global`` / ``nonlocal`` at odd      rebinding trusted names
scopes are allowed — namespaces are
per-agent anyway
oversized source / AST                resource-consumption (denial of
                                      service) at load time
====================================  =======================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.errors import CodeVerificationError

__all__ = ["VerifierPolicy", "verify_source", "check_source_size",
           "DEFAULT_ALLOWED_IMPORTS", "BANNED_BUILTINS"]

DEFAULT_ALLOWED_IMPORTS = frozenset({"math", "itertools", "functools"})

BANNED_BUILTINS = frozenset(
    {
        "eval",
        "exec",
        "compile",
        "open",
        "input",
        "__import__",
        "globals",
        "locals",
        "vars",
        "getattr",
        "setattr",
        "delattr",
        "hasattr",
        "type",
        "object",
        "memoryview",
        "breakpoint",
        "exit",
        "quit",
        "help",
        "dir",
        "id",
        "classmethod",
        "staticmethod",
        "property",
    }
)


@dataclass(frozen=True, slots=True)
class VerifierPolicy:
    """Limits applied by :func:`verify_source`."""

    allowed_imports: frozenset[str] = DEFAULT_ALLOWED_IMPORTS
    banned_names: frozenset[str] = BANNED_BUILTINS
    max_source_bytes: int = 256 * 1024
    max_ast_nodes: int = 50_000
    # Telescript-permit analogue, enforced by loop instrumentation at load
    # time (see repro.sandbox.instrument): total loop iterations allowed
    # per entry-method invocation.
    max_loop_iterations: int = 1_000_000


@dataclass
class _Findings:
    violations: list[str] = field(default_factory=list)

    def add(self, node: ast.AST | None, reason: str) -> None:
        line = getattr(node, "lineno", "?")
        self.violations.append(f"line {line}: {reason}")


class _Checker(ast.NodeVisitor):
    def __init__(self, policy: VerifierPolicy, findings: _Findings) -> None:
        self.policy = policy
        self.findings = findings
        self.nodes = 0

    def visit(self, node: ast.AST) -> None:
        # Every node passes through here once, so the AST size cap needs
        # no separate walk of the tree.
        self.nodes += 1
        getattr(self, "visit_" + node.__class__.__name__, self.generic_visit)(node)

    def _reject_subtree(self, node: ast.AST, reason: str) -> None:
        self.findings.add(node, reason)
        # The subtree goes unchecked but still counts toward the size cap.
        self.nodes += sum(1 for _ in ast.walk(node)) - 1

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root not in self.policy.allowed_imports:
                self.findings.add(node, f"import of {alias.name!r} not allowed")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".", 1)[0]
        if node.level != 0:
            self.findings.add(node, "relative imports not allowed")
        elif root not in self.policy.allowed_imports:
            self.findings.add(node, f"import from {node.module!r} not allowed")
        self.generic_visit(node)

    # -- attribute access ---------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr.startswith("_"):
            self.findings.add(
                node, f"access to underscore attribute {node.attr!r} not allowed"
            )
        self.generic_visit(node)

    # -- names ------------------------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.policy.banned_names:
            self.findings.add(node, f"use of banned name {node.id!r}")
        elif node.id.startswith("__") and node.id.endswith("__"):
            self.findings.add(node, f"use of dunder name {node.id!r}")
        self.generic_visit(node)

    # -- definitions: dunder method names are allowed only for a safe set ---------

    _SAFE_DUNDER_DEFS = frozenset(
        {
            "__init__",
            "__repr__",
            "__str__",
            "__eq__",
            "__ne__",
            "__lt__",
            "__le__",
            "__gt__",
            "__ge__",
            "__hash__",
            "__len__",
            "__iter__",
            "__next__",
            "__contains__",
            "__add__",
            "__sub__",
            "__mul__",
            "__call__",
        }
    )

    def _check_def_name(self, node: ast.AST, name: str) -> None:
        if name.startswith("__") and name.endswith("__"):
            if name not in self._SAFE_DUNDER_DEFS:
                self.findings.add(node, f"definition of dunder {name!r} not allowed")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Decorator expressions are ordinary Name/Attribute nodes and are
        # covered by generic_visit.
        self._check_def_name(node, node.name)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._reject_subtree(node, "async functions not allowed in agent code")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_def_name(node, node.name)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    self._check_def_name(sub, sub.id)
        self.generic_visit(node)

    # -- misc dangerous constructs ---------------------------------------------------

    def visit_Await(self, node: ast.Await) -> None:
        self._reject_subtree(node, "await not allowed in agent code")

    def visit_Yield(self, node: ast.Yield) -> None:
        # generators are fine; nothing to check
        self.generic_visit(node)


def check_source_size(source: str, policy: VerifierPolicy) -> int:
    """Refuse source over the policy's byte cap, before any other work.

    Returns the source's size in bytes.
    """
    size = len(source.encode("utf-8", errors="replace"))
    if size > policy.max_source_bytes:
        raise CodeVerificationError(
            f"source too large ({size} bytes > {policy.max_source_bytes})"
        )
    return size


def verify_source(source: str, policy: VerifierPolicy | None = None) -> ast.Module:
    """Verify agent source; returns the parsed module or raises.

    Raises :class:`~repro.errors.CodeVerificationError` whose message
    lists every violation found.  An oversized AST is reported alone,
    whatever else is wrong with it.
    """
    policy = policy or VerifierPolicy()
    check_source_size(source, policy)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise CodeVerificationError(f"syntax error: {exc}") from exc
    findings = _Findings()
    checker = _Checker(policy, findings)
    try:
        checker.visit(tree)
        node_count = checker.nodes
    except RecursionError:
        # Too deep for the recursive checker: size the tree iteratively
        # so an oversized AST is still reported as such.
        node_count = sum(1 for _ in ast.walk(tree))
        if node_count <= policy.max_ast_nodes:
            raise CodeVerificationError("AST nested too deeply") from None
    if node_count > policy.max_ast_nodes:
        raise CodeVerificationError(
            f"AST too large ({node_count} nodes > {policy.max_ast_nodes})"
        )
    if findings.violations:
        detail = "; ".join(findings.violations)
        raise CodeVerificationError(f"code verification failed: {detail}")
    return tree
