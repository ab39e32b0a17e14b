"""C6 — protection-domain creation and resident scaling (section 5.3).

Domain creation = thread group + (for untrusted code) namespace + domain
database record.  Also: how the server behaves as the resident population
grows (registry/db lookups with many agents).
"""

from __future__ import annotations

import pytest

from repro.credentials.rights import Rights
from repro.sandbox.domain import ProtectionDomain
from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.threadgroup import ThreadGroup
from repro.core.domain_db import DomainDatabase

from _common import BenchWorld, time_op, write_table

AGENT_SOURCE = """
class Visitor(Agent):
    def run(self):
        self.complete()
"""


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


def test_thread_group_creation(benchmark):
    benchmark(lambda: ThreadGroup("g"))


def test_domain_creation_trusted(benchmark, world):
    creds = world.credentials(Rights.all())
    counter = iter(range(10**9))
    benchmark(
        lambda: ProtectionDomain(
            f"d{next(counter)}", "agent", ThreadGroup("g"), credentials=creds
        )
    )


def test_namespace_creation_and_load(benchmark):
    class Agent:  # stand-in trusted binding
        pass

    def create():
        ns = AgentNamespace("bench", trusted={"Agent": Agent})
        ns.load(AGENT_SOURCE)

    benchmark(create)


def test_domain_db_admit(benchmark, world):
    db = DomainDatabase(world.clock)
    creds = world.credentials(Rights.all())
    counter = iter(range(10**9))

    def admit():
        domain = ProtectionDomain(
            f"d{next(counter)}", "agent", ThreadGroup("g"), credentials=creds
        )
        with db.privileged():
            db.admit(domain, creds, "home")

    benchmark(admit)


def test_table_c6(benchmark, world):
    def build():
        rows = []
        creds = world.credentials(Rights.all())
        rows.append(["thread group", time_op(lambda: ThreadGroup("g"))])
        counter = iter(range(10**9))
        rows.append([
            "protection domain (trusted code)",
            time_op(lambda: ProtectionDomain(
                f"d{next(counter)}", "agent", ThreadGroup("g"),
                credentials=creds,
            )),
        ])

        class AgentStub:
            pass

        rows.append([
            "namespace construct (builtins copy)",
            time_op(lambda: AgentNamespace("b", trusted={"Agent": AgentStub})),
        ])
        ns_counter = iter(range(10**9))

        def create_and_load():
            ns = AgentNamespace(f"b{next(ns_counter)}",
                                trusted={"Agent": AgentStub})
            ns.load(AGENT_SOURCE)

        rows.append(["namespace + verify + load agent code",
                     time_op(create_and_load, target_seconds=0.03)])
        db = DomainDatabase(world.clock)

        def admit():
            domain = ProtectionDomain(
                f"d{next(counter)}", "agent", ThreadGroup("g"),
                credentials=creds,
            )
            with db.privileged():
                db.admit(domain, creds, "home")

        rows.append(["domain-db admit", time_op(admit, target_seconds=0.03)])
        # resident scaling: db lookups with many residents
        for n in (10, 1000, 10000):
            db2 = DomainDatabase(world.clock)
            last = None
            with db2.privileged():
                for i in range(n):
                    last = ProtectionDomain(
                        f"r{i}", "agent", ThreadGroup("g"), credentials=creds
                    )
                    db2.admit(last, creds, "home")
            rows.append([
                f"domain-db get() with {n} residents",
                time_op(lambda: db2.get(last.domain_id)),
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "C6",
        "protection-domain creation and resident scaling (section 5.3)",
        ["operation", "ns"],
        rows,
        seed=4000,
        headline=(
            "protection domain (trusted code)",
            next(r[1] for r in rows if r[0] == "protection domain (trusted code)"),
            "ns",
        ),
        notes=(
            "domain creation is microseconds (the namespace's builtins copy"
            " and code verification dominate for untrusted agents);"
            " domain-db access is O(1) in residents."
        ),
    )
