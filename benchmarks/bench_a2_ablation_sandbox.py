"""A2 — ablation: what the sandbox costs at load time.

The Java-model analogue is pure load-time work (nothing on the call
path): AST verification scales with shipped code size; namespace
construction is a builtins copy; the impostor scan is a top-level-name
set intersection.  This bench justifies accepting that work per arrival
rather than per call — and shows what a server's code cache leaves of it
when the same source arrives again: a hash, the impostor scan and the
``exec`` of an already-compiled code object.
"""

from __future__ import annotations

import pytest

from repro.sandbox.codecache import CodeVerificationCache
from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.verifier import verify_source

from _common import time_op, write_table


def agent_source(n_methods: int) -> str:
    lines = ["class Visitor(Agent):"]
    for i in range(n_methods):
        lines.append(f"    def step{i}(self, x):")
        lines.append(f"        total = x + {i}")
        lines.append("        for j in range(3):")
        lines.append("            total = total + j * 2")
        lines.append("        return total")
    lines.append("    def run(self):")
    lines.append("        self.complete()")
    return "\n".join(lines) + "\n"


class AgentStub:
    def complete(self):
        pass


@pytest.mark.parametrize("n_methods", [1, 20, 200])
def test_verify_source(benchmark, n_methods):
    source = agent_source(n_methods)
    benchmark(verify_source, source)


def test_namespace_construction(benchmark):
    benchmark(lambda: AgentNamespace("a", trusted={"Agent": AgentStub}))


def test_load_including_verify(benchmark):
    source = agent_source(20)
    counter = iter(range(10**9))

    def load():
        ns = AgentNamespace(f"a{next(counter)}", trusted={"Agent": AgentStub})
        ns.load(source)

    benchmark(load)


def test_load_cached(benchmark):
    source = agent_source(20)
    cache = CodeVerificationCache()
    counter = iter(range(10**9))

    def load():
        ns = AgentNamespace(f"a{next(counter)}", trusted={"Agent": AgentStub},
                            code_cache=cache)
        ns.load(source)

    benchmark(load)
    assert cache.misses == 1


def test_table_a2(benchmark):
    def build():
        rows = []
        for n in (1, 20, 100, 200):
            source = agent_source(n)
            size = len(source)
            verify_ns = time_op(lambda s=source: verify_source(s),
                                target_seconds=0.03)
            counter = iter(range(10**9))

            def load(s=source):
                ns = AgentNamespace(f"a{next(counter)}",
                                    trusted={"Agent": AgentStub})
                ns.load(s)

            load_ns = time_op(load, target_seconds=0.03)
            cache = CodeVerificationCache()

            def load_cached(s=source):
                ns = AgentNamespace(f"a{next(counter)}",
                                    trusted={"Agent": AgentStub},
                                    code_cache=cache)
                ns.load(s)

            cached_ns = time_op(load_cached, target_seconds=0.03)
            rows.append([size, verify_ns / 1e3, load_ns / 1e3,
                         verify_ns / load_ns * 100, cached_ns / 1e3])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "A2",
        "ablation: sandbox load-time cost vs shipped code size",
        ["source bytes", "verify µs", "verify+namespace+exec µs", "verify %",
         "cached load µs"],
        rows,
        headline=(
            f"verify share of uncached load, {rows[-1][0]}-byte source",
            rows[-1][3], "%",
        ),
        notes=(
            "verification is linear in code size and a moderate fraction of"
            " total load cost; all of it is paid once per distinct source on"
            " a server — a later arrival of the same bytes (cached load) pays"
            " only hashing, namespace construction and exec — and the call"
            " path (F5) carries none of it."
        ),
    )
