"""Property-based tests of the code verifier and namespace loader.

Two directions:

* **soundness of acceptance** — randomly generated programs from a benign
  grammar are accepted, load, and compute what plain ``exec`` computes;
* **completeness of rejection** — splicing any banned construct into an
  otherwise benign program flips the verdict to rejected.

Plus the code cache: whatever the order of sources and policies, a
cached verdict is the verdict :func:`verify_source` gives uncached.
"""

from __future__ import annotations

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodeVerificationError, NamespaceError
from repro.sandbox import codecache
from repro.sandbox.codecache import CodeVerificationCache
from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.verifier import VerifierPolicy, verify_source

# ---------------------------------------------------------------------------
# A tiny grammar of benign agent-ish programs
# ---------------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "total", "value", "acc"])
_numbers = st.integers(min_value=0, max_value=99)


@st.composite
def benign_expr(draw, depth=0):
    if depth > 2:
        return str(draw(_numbers))
    choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        return str(draw(_numbers))
    if choice == 1:
        left = draw(benign_expr(depth=depth + 1))
        right = draw(benign_expr(depth=depth + 1))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({left} {op} {right})"
    if choice == 2:
        inner = draw(benign_expr(depth=depth + 1))
        fn = draw(st.sampled_from(["abs", "min", "max"]))
        second = draw(_numbers)
        return f"{fn}({inner}, {second})" if fn != "abs" else f"abs({inner})"
    if choice == 3:
        n = draw(st.integers(min_value=1, max_value=5))
        return f"sum(range({n}))"
    return f"len([{draw(_numbers)}, {draw(_numbers)}])"


@st.composite
def benign_program(draw):
    lines = []
    result_name = draw(_names)
    lines.append(f"{result_name} = {draw(benign_expr())}")
    n_statements = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_statements):
        name = draw(_names)
        lines.append(f"{name} = {draw(benign_expr())}")
        if draw(st.booleans()):
            lines.append(f"{result_name} = {result_name} + {name}")
    lines.append(f"RESULT = {result_name}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(benign_program())
def test_property_benign_programs_accepted_and_faithful(source):
    verify_source(source)  # accepted
    ns = AgentNamespace("fuzz")
    ns.load(source)
    reference: dict = {}
    exec(source, reference)  # noqa: S102 - trusted: our own generator
    assert ns.get("RESULT") == reference["RESULT"]


_BANNED_SNIPPETS = [
    "import os",
    "from socket import socket",
    "x = eval",
    "x = exec",
    "x = __import__",
    "x = open('/etc/passwd')",
    "x = getattr(a, 'b')",
    "x = (1).__class__",
    "x = obj._private",
    "x = globals()",
    "x = type(1)",
    "__builtins__ = {}",
    "async def f():\n    pass",
]


@settings(max_examples=100, deadline=None)
@given(
    benign_program(),
    st.sampled_from(_BANNED_SNIPPETS),
    st.sampled_from(["prefix", "suffix"]),
)
def test_property_any_banned_splice_rejected(source, snippet, where):
    spliced = (
        snippet + "\n" + source if where == "prefix" else source + snippet + "\n"
    )
    with pytest.raises(CodeVerificationError):
        verify_source(spliced)


@settings(max_examples=50, deadline=None)
@given(benign_program(), st.sampled_from(["Agent", "host", "Resource"]))
def test_property_trusted_names_cannot_be_shadowed(source, trusted_name):
    ns = AgentNamespace("fuzz", trusted={trusted_name: object()})
    spliced = source + f"{trusted_name} = 'impostor'\n"
    with pytest.raises(NamespaceError):
        ns.load(spliced)
    assert not isinstance(ns.get(trusted_name), str)


@settings(max_examples=50, deadline=None)
@given(benign_program(), benign_program())
def test_property_namespaces_never_leak(source_a, source_b):
    ns_a = AgentNamespace("a")
    ns_b = AgentNamespace("b")
    ns_a.load(source_a)
    ns_b.load("UNTOUCHED = 1\n" + source_b)
    # Names defined in A exist in A; B's extra marker never appears in A.
    assert "RESULT" in ns_a
    assert "UNTOUCHED" not in ns_a


# ---------------------------------------------------------------------------
# The code cache: a cached verdict is the uncached verdict
# ---------------------------------------------------------------------------

_POLICIES = [
    VerifierPolicy(),
    VerifierPolicy(allowed_imports=frozenset({"math", "os", "socket"})),
    VerifierPolicy(max_ast_nodes=40),
    VerifierPolicy(max_source_bytes=80),
]


@st.composite
def verdict_source(draw):
    source = draw(benign_program())
    if draw(st.booleans()):
        source += draw(st.sampled_from(_BANNED_SNIPPETS)) + "\n"
    return source


def _verdict(check, source, policy):
    try:
        check(source, policy)
    except CodeVerificationError as exc:
        return "rejected", str(exc)
    return "accepted", None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(verdict_source(), min_size=1, max_size=3),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(_POLICIES)),
        min_size=1,
        max_size=12,
    ),
)
def test_property_cached_verdict_equals_uncached(sources, picks):
    cache = CodeVerificationCache()
    # A small pool of sources, drawn again and again under any policy in
    # any order: repeats meet entries made under the same or another policy,
    # and a small capacity makes them meet evictions too.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codecache, "CODE_CACHE_SIZE", 4)
        for index, policy in picks:
            source = sources[index % len(sources)]
            assert _verdict(cache.verify, source, policy) == _verdict(
                verify_source, source, policy
            )


@settings(max_examples=50, deadline=None)
@given(benign_program(), st.sampled_from(_BANNED_SNIPPETS + [""]))
def test_property_size_cap_counts_every_node(source, snippet):
    source += snippet + "\n"
    nodes = sum(1 for _ in ast.walk(ast.parse(source)))
    with pytest.raises(CodeVerificationError, match=rf"AST too large \({nodes} "):
        verify_source(source, VerifierPolicy(max_ast_nodes=nodes - 1))
    _, message = _verdict(
        verify_source, source, VerifierPolicy(max_ast_nodes=nodes)
    )
    assert message is None or "AST too large" not in message
