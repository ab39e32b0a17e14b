"""F4 — the bounded buffer resource (Fig. 4).

Throughput of the paper's running example under protection:

- direct-mode put/get pairs, direct vs via proxy (pure overhead on a
  stateful resource);
- the simulated blocking buffer: a producer/consumer pair of agents
  through asymmetric proxies — how many items/sec of *wall-clock* time
  the whole stack (kernel, threads, proxies) sustains once both agents
  are launched (world set-up, keys and admission are not timed).
"""

from __future__ import annotations

import time

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group
from repro.server.testbed import Testbed

from _common import BenchWorld, median_of, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")
N_ITEMS = 300


def direct_buffer():
    return Buffer(URN.parse("urn:resource:bench.org/b"), OWNER,
                  SecurityPolicy.allow_all(confine=False))


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


def test_put_get_direct(benchmark):
    buf = direct_buffer()

    def cycle():
        buf.put(1)
        buf.get()

    benchmark(cycle)


def test_put_get_via_proxy(benchmark, world):
    buf = direct_buffer()
    domain = world.agent_domain(Rights.all())
    proxy = buf.get_proxy(domain.credentials, world.context(domain))

    def cycle():
        proxy.put(1)
        proxy.get()

    with enter_group(domain.thread_group):
        benchmark(cycle)


@register_trusted_agent_class
class BenchProducer(Agent):
    def run(self):
        pipe = self.host.get_resource("urn:resource:site0.net/pipe")
        for i in range(N_ITEMS):
            pipe.put(i)
        self.complete()


@register_trusted_agent_class
class BenchConsumer(Agent):
    def run(self):
        pipe = self.host.get_resource("urn:resource:site0.net/pipe")
        for _ in range(N_ITEMS):
            pipe.get()
        self.complete()


def producer_consumer_run() -> float:
    """One producer/consumer world; returns the wall seconds of ``bed.run()``."""
    bed = Testbed(1)
    policy = SecurityPolicy(
        rules=[
            PolicyRule("agent", "*producer*", Rights.of("Buffer.put")),
            PolicyRule("agent", "*consumer*", Rights.of("Buffer.get")),
        ]
    )
    pipe = Buffer(URN.parse("urn:resource:site0.net/pipe"), OWNER, policy,
                  capacity=8, kernel=bed.kernel)
    bed.home.install_resource(pipe)
    bed.launch(BenchProducer(), Rights.all(), agent_local=f"producer-{id(bed)}")
    bed.launch(BenchConsumer(), Rights.all(), agent_local=f"consumer-{id(bed)}")
    start = time.perf_counter()
    bed.run()
    return time.perf_counter() - start


def test_producer_consumer_sim(benchmark):
    benchmark.pedantic(producer_consumer_run, rounds=3, iterations=1)


def test_table_f4(benchmark, world):
    def build():
        buf = direct_buffer()
        domain = world.agent_domain(Rights.all())
        proxy = buf.get_proxy(domain.credentials, world.context(domain))

        def direct_cycle():
            buf.put(1)
            buf.get()

        def proxy_cycle():
            proxy.put(1)
            proxy.get()

        with enter_group(domain.thread_group):
            direct_ns = time_op(direct_cycle)
            proxy_ns = time_op(proxy_cycle)
        sim_wall = median_of(producer_consumer_run)
        return [
            ["put+get direct", direct_ns, 1e9 / direct_ns],
            ["put+get via proxy", proxy_ns, 1e9 / proxy_ns],
            [
                f"producer/consumer agents ({N_ITEMS} items, full stack)",
                sim_wall / N_ITEMS * 1e9,
                N_ITEMS / sim_wall,
            ],
        ]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "F4",
        "bounded buffer throughput under protection (Fig. 4)",
        ["configuration", "ns/item", "items/sec (wall)"],
        rows,
        seed=4000,
        headline=(rows[-1][0], rows[-1][1], "ns/item"),
        notes=(
            "proxy overhead on a stateful resource is a constant few hundred"
            " ns; the full-stack row times bed.run() alone, after both agents"
            " are launched (median of 5 worlds), and includes kernel,"
            " simulated threads and blocking hand-off, not just the proxy."
        ),
    )
