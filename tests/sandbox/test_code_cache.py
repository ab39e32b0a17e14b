"""Tests for the per-server cache of verified, compiled agent code."""

from __future__ import annotations

import ast
import traceback

import pytest

from repro.errors import (
    CodeVerificationError,
    ExecutionBudgetExceeded,
    NamespaceError,
)
from repro.sandbox.codecache import (
    CODE_CACHE_BYTES,
    CODE_CACHE_SIZE,
    CodeVerificationCache,
    compile_verified,
    source_digest,
)
from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.verifier import VerifierPolicy, verify_source

LAX = VerifierPolicy(allowed_imports=frozenset({"math", "os"}))
STRICT = VerifierPolicy()
USES_OS = "import os\nSEP = 'x'\n"

COUNTER = (
    "STATE = []\n"
    "def remember(item):\n"
    "    STATE.append(item)\n"
    "    return len(STATE)\n"
)

SPINNER = (
    "def spin(n):\n"
    "    i = 0\n"
    "    while i < n:\n"
    "        i = i + 1\n"
    "    return i\n"
)


class TestPolicyIsPartOfTheKey:
    def test_lax_entry_never_admits_under_strict_policy(self):
        cache = CodeVerificationCache()
        cache.verify(USES_OS, LAX)
        with pytest.raises(CodeVerificationError, match="import of 'os'"):
            cache.verify(USES_OS, STRICT)

    def test_strict_rejection_does_not_block_lax_acceptance(self):
        cache = CodeVerificationCache()
        with pytest.raises(CodeVerificationError, match="import of 'os'"):
            cache.verify(USES_OS, STRICT)
        entry = cache.verify(USES_OS, LAX)
        assert "os" in entry.names
        with pytest.raises(CodeVerificationError, match="import of 'os'"):
            cache.verify(USES_OS, STRICT)

    def test_equal_policies_share_an_entry(self):
        cache = CodeVerificationCache()
        first = cache.verify(COUNTER, VerifierPolicy())
        assert cache.verify(COUNTER, VerifierPolicy()) is first
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}


class TestSharedEntryIsolation:
    def test_two_namespaces_from_one_entry_share_no_globals(self):
        cache = CodeVerificationCache()
        ns_a = AgentNamespace("a", code_cache=cache)
        ns_b = AgentNamespace("b", code_cache=cache)
        ns_a.load(COUNTER)
        ns_b.load(COUNTER)
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 1
        assert ns_a.get("remember")("x") == 1
        assert ns_a.get("remember")("y") == 2
        assert ns_b.get("remember")("z") == 1
        assert ns_a.get("STATE") is not ns_b.get("STATE")
        assert ns_a.get("remember").__globals__ is not ns_b.get("remember").__globals__

    def test_exhausting_one_budget_leaves_the_other_untouched(self):
        cache = CodeVerificationCache()
        policy = VerifierPolicy(max_loop_iterations=100)
        greedy = AgentNamespace("greedy", policy=policy, code_cache=cache)
        idle = AgentNamespace("idle", policy=policy, code_cache=cache)
        greedy.load(SPINNER)
        idle.load(SPINNER)
        with pytest.raises(ExecutionBudgetExceeded):
            greedy.get("spin")(10_000)
        assert greedy.loop_iterations_used > 100
        assert idle.loop_iterations_used == 0
        assert idle.get("spin")(50) == 50
        assert idle.loop_iterations_used == 50

    def test_cached_entry_still_fails_the_impostor_check(self):
        cache = CodeVerificationCache()
        source = "class Resource:\n    marker = 'evil'\n"
        plain = AgentNamespace("plain", code_cache=cache)
        plain.load(source)
        guarded = AgentNamespace(
            "guarded", trusted={"Resource": int}, code_cache=cache
        )
        with pytest.raises(NamespaceError, match="shadow trusted name.*Resource"):
            guarded.load(source)
        assert cache.hits == 1
        assert guarded.get("Resource") is int
        assert guarded.loaded_sources == 0


class TestRejections:
    @pytest.mark.parametrize(
        "source, policy",
        [
            ("import os\nx = eval\n", STRICT),
            ("def broken(:\n", STRICT),
            ("x = 1\n" * 50, VerifierPolicy(max_source_bytes=100)),
            ("x = [1, 2, 3, 4, 5, 6, 7, 8]\n", VerifierPolicy(max_ast_nodes=10)),
        ],
    )
    def test_rejected_again_with_the_identical_message(self, source, policy):
        cache = CodeVerificationCache()
        with pytest.raises(CodeVerificationError) as uncached:
            verify_source(source, policy)
        for _ in range(2):
            with pytest.raises(CodeVerificationError) as cached:
                cache.verify(source, policy)
            assert str(cached.value) == str(uncached.value)
        assert len(cache) == 0

    def test_oversized_source_is_refused_before_it_is_hashed(self):
        cache = CodeVerificationCache()
        with pytest.raises(CodeVerificationError, match="source too large"):
            cache.verify("x = 1\n" * 50, VerifierPolicy(max_source_bytes=100))
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_code_the_compiler_refuses_is_a_verification_error(self):
        # ``return`` outside a function parses, so only compile catches it.
        with pytest.raises(CodeVerificationError, match="syntax error"):
            compile_verified("return 1\n", STRICT)


class TestBounds:
    def test_evicts_least_recently_used_beyond_capacity(self):
        cache = CodeVerificationCache()
        sources = [f"x = {i}\n" for i in range(CODE_CACHE_SIZE + 1)]
        for source in sources[:-1]:
            cache.verify(source, STRICT)
        cache.verify(sources[0], STRICT)  # 0 is now the most recent
        cache.verify(sources[-1], STRICT)  # evicts 1
        assert len(cache) == CODE_CACHE_SIZE
        misses = cache.misses
        cache.verify(sources[0], STRICT)
        assert cache.misses == misses
        cache.verify(sources[1], STRICT)
        assert cache.misses == misses + 1
        assert len(cache) == CODE_CACHE_SIZE


    def test_evicts_least_recently_used_beyond_byte_budget(self):
        def sized(i):  # four of these fit the budget, five do not
            return f"x{i} = '{'a' * (CODE_CACHE_BYTES // 4 - 16)}'\n"

        cache = CodeVerificationCache()
        for i in range(4):
            cache.verify(sized(i), STRICT)
        assert len(cache) == 4
        cache.verify(sized(0), STRICT)  # 0 is now the most recent
        cache.verify(sized(4), STRICT)  # evicts 1
        assert len(cache) == 4
        misses = cache.misses
        cache.verify(sized(0), STRICT)
        assert cache.misses == misses
        cache.verify(sized(1), STRICT)
        assert cache.misses == misses + 1

    def test_source_over_byte_budget_is_returned_but_not_kept(self):
        roomy = VerifierPolicy(max_source_bytes=2 * CODE_CACHE_BYTES)
        huge = f"x = '{'a' * CODE_CACHE_BYTES}'\n"
        cache = CodeVerificationCache()
        cache.verify(COUNTER, roomy)
        assert "x" in cache.verify(huge, roomy).names
        cache.verify(huge, roomy)
        assert cache.stats() == {"hits": 0, "misses": 3, "size": 1}
        cache.verify(COUNTER, roomy)  # the huge source evicted nothing
        assert cache.hits == 1


class TestCompiledCode:
    def test_filename_is_derived_from_the_content(self):
        entry = compile_verified(COUNTER, STRICT)
        assert entry.code.co_filename == f"<agent:{source_digest(COUNTER)[:12]}>"

    def test_traceback_names_the_code(self):
        source = "def boom():\n    return 1 // 0\n"
        ns = AgentNamespace("tb", code_cache=CodeVerificationCache())
        ns.load(source)
        with pytest.raises(ZeroDivisionError) as info:
            ns.get("boom")()
        frames = traceback.extract_tb(info.value.__traceback__)
        assert frames[-1].filename == f"<agent:{source_digest(source)[:12]}>"

    def test_loops_are_instrumented(self):
        entry = compile_verified(SPINNER, STRICT)
        assert "__loop_check__" in entry.code.co_consts[0].co_names

    def test_surrogates_do_not_alias_replaced_text(self):
        assert source_digest("x = '\ud800'\n") != source_digest("x = '?'\n")


class TestVerifierNodeCount:
    def test_size_cap_counts_unchecked_async_subtrees(self):
        source = "async def f():\n    await g(1, 2, 3)\n"
        nodes = sum(1 for _ in ast.walk(ast.parse(source)))
        with pytest.raises(CodeVerificationError, match="async"):
            verify_source(source, VerifierPolicy(max_ast_nodes=nodes))
        with pytest.raises(
            CodeVerificationError, match=rf"AST too large \({nodes} nodes > {nodes - 1}\)"
        ):
            verify_source(source, VerifierPolicy(max_ast_nodes=nodes - 1))

    def test_too_deep_for_the_checker_is_a_verification_error(self):
        source = "x = " + " + ".join(["a"] * 2000) + "\n"
        with pytest.raises(CodeVerificationError, match="nested too deeply"):
            verify_source(source)

    def test_size_cap_keeps_precedence_when_too_deep(self):
        source = "x = " + " + ".join(["a"] * 2000) + "\n"
        with pytest.raises(CodeVerificationError, match="AST too large"):
            verify_source(source, VerifierPolicy(max_ast_nodes=1000))
