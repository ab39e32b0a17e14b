"""Every span in ``src/repro`` opens through ``repro.obs.runtime.span``.

A site is written once: ``with _obs.span(...) as span:`` and span-only
work behind ``if span is not None``.  This guard walks the syntax tree
of every module but the switchboard itself and fails on the shapes that
fork a site in two:

* an ``if _obs.TRACING`` / ``if not _obs.TRACING`` branch that opens a
  span (``.span(`` inside either arm);
* a direct ``TRACER.span(`` call;
* a private ``nullcontext()`` stand-in for a span.
"""

from __future__ import annotations

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
SWITCHBOARD = PACKAGE / "obs" / "runtime.py"


def _trees() -> list[tuple[pathlib.Path, ast.Module]]:
    return [
        (path, ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != SWITCHBOARD
    ]


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _tests_tracing(test: ast.AST) -> bool:
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        test = test.operand
    return _name(test) == "TRACING"


def _span_calls(nodes: list[ast.stmt]) -> list[ast.Call]:
    return [
        node
        for stmt in nodes
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and _name(node.func) == "span"
    ]


def _where(path: pathlib.Path, node: ast.AST) -> str:
    return f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"


def test_modules_are_found():
    assert SWITCHBOARD.is_file()
    assert len(_trees()) > 50


def test_no_tracing_branch_opens_a_span():
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and _tests_tracing(node.test):
                offenders += [
                    _where(path, call)
                    for call in _span_calls(node.body + node.orelse)
                ]
    assert offenders == [], (
        "open spans with `with _obs.span(...) as span:`, not inside an"
        f" `if _obs.TRACING` fork: {offenders}"
    )


def test_only_the_switchboard_calls_tracer_span():
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and _name(node.func.value) == "TRACER"
            ):
                offenders.append(_where(path, node))
    assert offenders == [], f"use _obs.span instead of TRACER.span: {offenders}"


def test_no_private_no_op_span():
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) == "nullcontext":
                offenders.append(_where(path, node))
    assert offenders == [], (
        f"_obs.span already returns the shared no-op scope: {offenders}"
    )
