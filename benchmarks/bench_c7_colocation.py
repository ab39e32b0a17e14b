"""C7 — co-located agent communication (section 6's closing claim).

"This same scheme is also used for controlled binding between agents
co-located at a server, allowing them to securely communicate with each
other."  What does that security layer cost per message?

- raw queue hand-off (no protection, the floor);
- mailbox ``deliver`` through a policy-restricted proxy (the shipped
  design: sender identity attached server-side);
- the full stack: two live agents exchanging N messages through a
  mailbox, wall-clock per round trip.
"""

from __future__ import annotations

import time

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.mailbox import AgentMailbox
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group
from repro.sim.kernel import Kernel
from repro.sim.sync import BlockingQueue
from repro.server.testbed import Testbed

from _common import BenchWorld, median_of, time_op, write_table

N_MESSAGES = 200


def make_mailbox_proxy(world):
    kernel = Kernel()
    owner_agent = URN.parse("urn:agent:bench.org/listener")
    mailbox = AgentMailbox(
        owner_agent, SecurityPolicy.allow_all(confine=False), kernel
    )
    domain = world.agent_domain(Rights.all())
    proxy = mailbox.get_proxy(domain.credentials, world.context(domain))
    return mailbox, domain, proxy


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


def test_raw_queue_put(benchmark):
    queue = BlockingQueue(Kernel())
    benchmark(queue.try_put, "message")


def test_mailbox_deliver_via_proxy(benchmark, world):
    _, domain, proxy = make_mailbox_proxy(world)
    with enter_group(domain.thread_group):
        benchmark(proxy.deliver, "message")


@register_trusted_agent_class
class C7Listener(Agent):
    def run(self):
        self.host.create_mailbox(SecurityPolicy.allow_all(confine=False))
        for _ in range(N_MESSAGES):
            self.host.receive()
        self.complete()


@register_trusted_agent_class
class C7Speaker(Agent):
    def __init__(self) -> None:
        self.target = ""

    def run(self):
        self.host.sleep(0.1)  # let the listener open its mailbox
        mailbox = self.host.get_resource(self.host.mailbox_of(self.target))
        for i in range(N_MESSAGES):
            mailbox.deliver(i)
        self.complete()


def exchange_run() -> float:
    bed = Testbed(1)
    listener = bed.launch(C7Listener(), Rights.all(),
                          agent_local=f"listener-{id(bed)}")
    speaker = C7Speaker()
    speaker.target = str(listener.name)
    bed.launch(speaker, Rights.all(), agent_local=f"speaker-{id(bed)}")
    start = time.perf_counter()
    bed.run()
    return time.perf_counter() - start


def test_full_agent_exchange(benchmark):
    benchmark.pedantic(exchange_run, rounds=3, iterations=1)


def test_table_c7(benchmark, world):
    def build():
        queue = BlockingQueue(Kernel())
        raw_ns = time_op(lambda: queue.try_put("m"))
        mailbox, domain, proxy = make_mailbox_proxy(world)
        with enter_group(domain.thread_group):
            proxy_ns = time_op(lambda: proxy.deliver("m"))
        wall = median_of(exchange_run)
        return [
            ["raw queue hand-off (floor)", raw_ns, 1.0],
            ["mailbox deliver via proxy", proxy_ns, proxy_ns / raw_ns],
            [f"live agents, {N_MESSAGES} messages (full stack)",
             wall / N_MESSAGES * 1e9, (wall / N_MESSAGES * 1e9) / raw_ns],
        ]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "C7",
        "co-located agent communication cost (section 6)",
        ["path", "ns/message", "x raw queue"],
        rows,
        seed=4000,
        headline=(rows[-1][0], rows[-1][1], "ns/message"),
        notes=(
            "the security layer (policy-gated proxy + server-attached sender"
            " identity) costs a small multiple of a raw queue operation; the"
            " full-stack figure (median of 5 worlds) is dominated by"
            " simulated-thread context switches, not by the protection."
        ),
    )
