"""F1 — the agent server structure (Fig. 1), end to end.

Hosting throughput and a latency breakdown across the pictured
components: admission validation (credentials + code), protection-domain
creation, and the full launch→complete round trip — for trusted-class
agents and for source-carrying (verified + namespace-loaded) agents.
"""

from __future__ import annotations

import time

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.transfer import capture_image
from repro.credentials.rights import Rights
from repro.server.testbed import Testbed

from _common import time_op, write_table


@register_trusted_agent_class
class NopAgent(Agent):
    def run(self):
        self.complete()


NOP_SOURCE = """
class NopVisitor(Agent):
    def run(self):
        self.complete()
"""


def host_n_trusted(n: int) -> float:
    bed = Testbed(1)
    for i in range(n):
        bed.launch(NopAgent(), Rights.all(), agent_local=f"nop-{i}")
    start = time.perf_counter()
    bed.run()
    return time.perf_counter() - start


def host_n_untrusted(n: int) -> float:
    bed = Testbed(1)
    for i in range(n):
        bed.launch_source(NOP_SOURCE, "NopVisitor", Rights.all(),
                          agent_local=f"nopv-{i}")
    start = time.perf_counter()
    bed.run()
    return time.perf_counter() - start


def test_host_50_trusted_agents(benchmark):
    benchmark.pedantic(host_n_trusted, args=(50,), rounds=3, iterations=1)


def test_host_50_untrusted_agents(benchmark):
    benchmark.pedantic(host_n_untrusted, args=(50,), rounds=3, iterations=1)


def test_admission_validation(benchmark):
    bed = Testbed(1)
    agent = NopAgent()
    image = capture_image(
        agent,
        credentials=bed.credentials_for(Rights.all()),
        entry_method="run",
        home_site=bed.home.name,
    )
    benchmark(bed.home.admission.validate, image)


def test_table_f1(benchmark):
    def build():
        bed = Testbed(1)
        creds_image = capture_image(
            NopAgent(),
            credentials=bed.credentials_for(Rights.all()),
            entry_method="run",
            home_site=bed.home.name,
        )
        validate_ns = time_op(
            lambda: bed.home.admission.validate(creds_image),
            target_seconds=0.05,
        )
        rows = [["admission validate (credential verify)", validate_ns / 1e3, ""]]
        for n in (10, 100):
            wall = host_n_trusted(n)
            rows.append([
                f"host {n} trusted agents (launch→complete)",
                wall / n * 1e6,
                f"{n / wall:,.0f} agents/s",
            ])
        for n in (10, 100):
            wall = host_n_untrusted(n)
            rows.append([
                f"host {n} untrusted agents (verify+namespace)",
                wall / n * 1e6,
                f"{n / wall:,.0f} agents/s",
            ])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "F1",
        "agent server hosting cost and throughput (Fig. 1)",
        ["operation", "µs/agent", "throughput"],
        rows,
        seed=1000,
        headline=(
            "host 100 trusted agents (launch→complete)",
            next(r[1] for r in rows
                 if r[0] == "host 100 trusted agents (launch→complete)"),
            "µs/agent",
        ),
        notes=(
            "per-agent cost is dominated by admission's RSA credential"
            " verification plus, for untrusted agents, AST verification and"
            " namespace construction; thread-group/domain bookkeeping is"
            " comparatively free."
        ),
    )
