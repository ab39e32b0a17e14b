"""One failed single-flight handshake counts once on the transfer breaker.

Callers that join a handshake in flight share its outcome
(``SecureHost.connect``).  When it fails, only one failure reaches the
destination's circuit breaker, whether the joiners received the
leader's exception object or their own wait ran out first: a wave as
large as the breaker's threshold must not open it on one lost hello.
The callers' stagger is drawn from ``REPRO_STRESS_SEED`` (default 1000),
which CI sweeps.
"""

from __future__ import annotations

import os

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.errors import NetworkError
from repro.server.agent_server import BREAKER_FAILURE_THRESHOLD
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread
from repro.util.retry import CircuitBreaker, RetryPolicy, call_with_retries
from repro.util.rng import make_rng
from tests.net.networld import World

STRESS_SEED = int(os.environ.get("REPRO_STRESS_SEED", "1000"))
WAVE = 8


@register_trusted_agent_class
class BreakerHopper(Agent):
    def __init__(self) -> None:
        self.dest = ""

    def run(self):
        if self.dest and self.host.server_name() != self.dest:
            self.go(self.dest, "run")
        self.complete()


def test_wave_to_an_unreachable_peer_counts_one_failure():
    assert WAVE >= BREAKER_FAILURE_THRESHOLD  # one count per caller would open it
    bed = Testbed(
        2,
        seed=STRESS_SEED,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(attempts=1),
        },
    )
    home, dest = bed.home, bed.servers[1]
    dest.crash()  # every hello goes unanswered
    for i in range(WAVE):
        agent = BreakerHopper()
        agent.dest = dest.name
        bed.launch(agent, Rights.all(), agent_local=f"b-{i}",
                   register_name=False)
    bed.run(detect_deadlock=False)
    assert home.stats["transfers_failed"] == WAVE
    assert home.secure.stats["connects_joined"] == WAVE - 1
    breaker = home._breakers[dest.name]
    assert breaker.consecutive_failures == 1
    assert breaker.state == "closed"
    assert breaker.times_opened == 0


def test_joiners_timing_out_on_their_own_count_nothing():
    world = World(seed=STRESS_SEED)
    host = world.add_secure("alice")
    world.network.add_node("bob")  # no secure host: the hello goes unanswered
    world.connect("alice", "bob")
    breaker = CircuitBreaker(world.kernel.clock, failure_threshold=WAVE)
    rng = make_rng(STRESS_SEED, "breaker-stagger")
    errors: list[NetworkError] = []

    def caller(timeout: float):
        def run():
            try:
                call_with_retries(
                    lambda _: host.call("bob", "app", b"x", timeout),
                    kernel=world.kernel,
                    policy=RetryPolicy(attempts=1),
                    breaker=breaker,
                )
            except NetworkError as exc:
                errors.append(exc.last_error)

        return run

    # The leader waits 10 s; half the joiners give up after 2 s of their
    # own, the rest share the leader's failure.
    SimThread(world.kernel, caller(10.0), "leader").start()
    for i in range(1, WAVE):
        timeout = 2.0 if i % 2 else 10.0
        delay = rng.uniform(0.0, 0.001)
        SimThread(world.kernel, caller(timeout), f"c{i}").start(delay)
    world.run(detect_deadlock=False)
    assert len(errors) == WAVE
    assert host.stats["connects_joined"] == WAVE - 1
    assert sum(1 for exc in errors if exc.context.get("joined")) == WAVE // 2
    assert breaker.consecutive_failures == 1
    assert breaker.state == "closed"
