"""Tests for the resident-lifetime (resource-consumption) defence."""

from __future__ import annotations

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.sandbox.threadgroup import current_group
from repro.server.supervisor import SupervisorConfig
from repro.server.testbed import Testbed

# Each resident's thread group, captured from inside it: a finished
# residency's record no longer holds its domain.
GROUPS: dict[str, object] = {}

GUARDED = "urn:resource:site0.net/guarded"


@register_trusted_agent_class
class Squatter(Agent):
    """Sleeps far longer than any reasonable residency."""

    def run(self):
        self.host.sleep(10_000.0)
        self.complete("finally")


@register_trusted_agent_class
class SquatterWithWorker(Agent):
    """Leaves a worker in its thread group sleeping forever."""

    def run(self):
        GROUPS[str(self.name)] = current_group()
        self.host.spawn_thread(lambda: self.host.sleep(10_000.0))
        self.host.sleep(10_000.0)
        self.complete("finally")


@register_trusted_agent_class
class GuardedSquatter(Agent):
    """One supervised resource call (which opens a watch), then a squat."""

    def run(self):
        self.host.get_resource(GUARDED).put("x")
        self.host.sleep(10_000.0)
        self.complete("finally")


@register_trusted_agent_class
class QuickGuest(Agent):
    def run(self):
        self.host.sleep(1.0)
        self.complete("done")


def test_squatter_is_evicted():
    bed = Testbed(1, server_kwargs={"resident_lifetime_limit": 60.0})
    image = bed.launch(Squatter(), Rights.all())
    bed.run(detect_deadlock=False)
    assert bed.clock.now() < 10_000.0  # eviction happened, no full sleep
    assert bed.home.resident_status(image.name)["status"] == "terminated"
    assert bed.home.stats["agents_killed_lifetime"] == 1
    denial = bed.home.audit.records(operation="agent.lifetime_limit")
    assert denial and not denial[0].allowed


def test_eviction_kills_the_squatters_workers():
    bed = Testbed(1, server_kwargs={"resident_lifetime_limit": 60.0})
    image = bed.launch(SquatterWithWorker(), Rights.all())
    # Stop well before the worker's own sleep would end it.
    bed.run(until=120.0, detect_deadlock=False)
    assert bed.home.stats["agents_killed_lifetime"] == 1
    assert GROUPS[str(image.name)].live_threads() == []


def test_eviction_forgets_the_supervisor_watch():
    bed = Testbed(
        1,
        supervision=SupervisorConfig(),
        server_kwargs={"resident_lifetime_limit": 60.0},
    )
    bed.home.install_resource(
        Buffer(
            URN.parse(GUARDED),
            URN.parse("urn:principal:site0.net/o"),
            SecurityPolicy(
                rules=[PolicyRule("any", "*", Rights.of("Buffer.*"), confine=False)]
            ),
        )
    )
    image = bed.launch(GuardedSquatter(), Rights.all())
    bed.run(until=30.0, detect_deadlock=False)
    domain_id = bed.home.domain_db.by_agent(image.name).domain_id
    assert domain_id in bed.home.supervisor._watches
    bed.run(until=120.0, detect_deadlock=False)
    assert bed.home.stats["agents_killed_lifetime"] == 1
    assert domain_id not in bed.home.supervisor._watches


def test_well_behaved_agents_unaffected():
    bed = Testbed(1, server_kwargs={"resident_lifetime_limit": 60.0})
    image = bed.launch(QuickGuest(), Rights.all())
    bed.run()
    assert bed.home.resident_status(image.name)["status"] == "completed"
    assert bed.home.stats["agents_killed_lifetime"] == 0


def test_departed_agent_not_double_counted():
    @register_trusted_agent_class
    class QuickHopper(Agent):
        def __init__(self) -> None:
            self.dest = ""

        def run(self):
            if self.dest:
                dest, self.dest = self.dest, ""
                self.go(dest, "run")
            self.host.sleep(1.0)
            self.complete()

    bed = Testbed(2, server_kwargs={"resident_lifetime_limit": 60.0})
    agent = QuickHopper()
    agent.dest = bed.servers[1].name
    image = bed.launch(agent, Rights.all())
    bed.run(detect_deadlock=False)
    # The agent departed home well before the limit; the stale timer on
    # the home server must not fire against its old domain.
    assert bed.home.stats["agents_killed_lifetime"] == 0
    assert bed.home.resident_status(image.name)["status"] == "departed"
    assert bed.servers[1].resident_status(image.name)["status"] == "completed"


def test_eviction_cleans_up_mailbox():
    @register_trusted_agent_class
    class SquatterWithMailbox(Agent):
        def run(self):
            self.host.create_mailbox(SecurityPolicy.allow_all())
            self.host.receive()  # blocks forever: nobody writes

    from repro.agents.mailbox import mailbox_name_of

    bed = Testbed(1, server_kwargs={"resident_lifetime_limit": 30.0})
    image = bed.launch(SquatterWithMailbox(), Rights.all())
    bed.run(detect_deadlock=False)
    assert bed.home.stats["agents_killed_lifetime"] == 1
    assert mailbox_name_of(image.name) not in bed.home.registry
