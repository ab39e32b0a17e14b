"""Graceful drain: migrate residents out, refuse new work, conserve.

``AgentServer.drain()`` is the planned-maintenance half of the
self-healing plane: it marks the server draining (gossiped in its
heartbeats, typed refusals for new admissions), then migrates every
resident to a load-chosen survivor using the same placement scorer the
crash-recovery path uses.  The agents themselves just keep touring —
a drained hop looks like any other migration to them.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.itinerary import Itinerary
from repro.agents.patterns import ItineraryAgent
from repro.agents.transfer import capture_image
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.errors import TransferError
from repro.naming.urn import URN
from repro.obs.slo import healed_conservation_residual
from repro.sandbox.threadgroup import current_group
from repro.server.supervisor import SupervisorConfig
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy

# Each resident's thread group, captured from inside it: a finished
# residency's record no longer holds its domain.
GROUPS: dict[str, object] = {}

GUARDED = "urn:resource:site0.net/guarded"


@register_trusted_agent_class
class DrainTourist(ItineraryAgent):
    """Dwells at every stop long enough to be caught by a drain."""

    dwell = 30.0

    def __init__(self) -> None:
        super().__init__()
        self.visited: list[str] = []

    def visit(self, stop):
        self.visited.append(self.host.server_name())
        self.host.sleep(self.dwell)

    def finish(self):
        self.host.report_home({"visited": self.visited})
        self.complete({"visited": self.visited})


@register_trusted_agent_class
class WorkerTourist(DrainTourist):
    """Leaves a worker sleeping in its thread group at every stop."""

    def visit(self, stop):
        GROUPS[self.host.server_name()] = current_group()
        self.host.spawn_thread(lambda: self.host.sleep(10_000.0))
        super().visit(stop)


@register_trusted_agent_class
class GuardedSleeper(Agent):
    """One supervised resource call (which opens a watch), then a nap."""

    def run(self):
        self.host.get_resource(GUARDED).put("x")
        self.host.sleep(60.0)
        self.complete()


def bed_of(n=3, seed=61):
    return Testbed(
        n,
        seed=seed,
        self_healing=True,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(
                attempts=3, base_delay=1.0, jitter=0.0
            ),
        },
    )


def tourist(*stops):
    agent = DrainTourist()
    agent.itinerary = Itinerary.tour(list(stops))
    return agent


def test_drain_migrates_residents_and_they_complete_elsewhere():
    bed = bed_of()
    s0, s1, s2 = bed.servers
    for _ in range(2):
        bed.launch(tourist(s1.name, s2.name), Rights.all())
    # Both tourists are dwelling at s1 when the drain starts.
    bed.kernel.schedule(2.0, s1.drain)
    bed.run(until=300.0, detect_deadlock=False)
    # Migration is an ordinary departure, just server-initiated:
    assert s1.stats["drains"] == 1
    assert s1.stats["drained_out"] == 2
    assert s1.stats["agents_killed_drain"] == 0  # nobody was stranded
    assert s1.stats["drain_failed"] == 0
    assert len(s1._threads) == 0 and len(s1._resident_images) == 0
    # Every tourist finished its tour exactly once, elsewhere.
    assert sum(s.stats["agents_completed"] for s in bed.servers) == 2
    tours = {
        r["agent"]: r["payload"]["visited"]
        for r in s0.reports
        if isinstance(r["payload"], dict) and "visited" in r["payload"]
    }
    assert len(tours) == 2
    # The drain did not lose the dwell at s1: state went with the agent.
    assert all(visited == [s1.name, s2.name] for visited in tours.values())
    assert healed_conservation_residual(bed.servers)() == 0
    drains = s1.audit.records(operation="agent.drain")
    assert len(drains) == 2


def test_drain_kills_the_residents_workers():
    bed = bed_of(seed=65)
    s0, s1, s2 = bed.servers
    agent = WorkerTourist()
    agent.itinerary = Itinerary.tour([s1.name, s2.name])
    image = bed.launch(agent, Rights.all())
    bed.kernel.schedule(2.0, s1.drain)
    # Stop well before the workers' own sleeps would end them.
    bed.run(until=300.0, detect_deadlock=False)
    assert s1.stats["drained_out"] == 1
    [record] = s1.domain_db.records_of(image.name)
    assert GROUPS[s1.name].live_threads() == []


def test_crash_forgets_supervisor_watches():
    bed = Testbed(1, supervision=SupervisorConfig())
    home = bed.home
    home.install_resource(
        Buffer(
            URN.parse(GUARDED),
            URN.parse("urn:principal:site0.net/o"),
            SecurityPolicy(
                rules=[PolicyRule("any", "*", Rights.of("Buffer.*"), confine=False)]
            ),
        )
    )
    bed.launch(GuardedSleeper(), Rights.all())
    bed.faults().crash(home, at=5.0, restart_at=10.0)
    bed.run(until=4.0, detect_deadlock=False)
    assert len(home.supervisor._watches) == 1
    bed.run(until=7.0, detect_deadlock=False)
    assert home.stats["agents_killed_crash"] == 1
    assert home.supervisor._watches == {}
    bed.run(until=20.0, detect_deadlock=False)
    assert home.stats["restarts"] == 1
    assert home.supervisor._watches == {}


def test_draining_server_refuses_new_admissions_typed():
    bed = bed_of(seed=62)
    s0, s1, s2 = bed.servers
    s1.drain()
    bed.run(until=10.0, detect_deadlock=False)
    # Gossiped: peers see the draining flag and stop placing work there.
    assert s0.membership.is_draining(s1.name)
    # A tour routed through the draining server is refused with a typed
    # TransferError; the itinerary driver records the skip and goes on.
    bed.launch(tourist(s1.name, s2.name), Rights.all())
    bed.run(until=200.0, detect_deadlock=False)
    assert s1.stats["transfers_refused_draining"] >= 1
    assert s1.stats["agents_hosted"] == 0
    assert sum(s.stats["agents_completed"] for s in bed.servers) == 1
    report = s0.reports[-1]["payload"]
    assert report["visited"] == [s2.name]
    assert healed_conservation_residual(bed.servers)() == 0


def test_draining_server_refuses_local_launch():
    bed = bed_of(seed=63)
    s1 = bed.servers[1]
    s1.drain()
    with pytest.raises(TransferError, match="draining"):
        bed.launch(tourist(s1.name), Rights.all(), at=s1)


def test_drain_with_no_survivors_relaunches_locally():
    # A lone server has nowhere to send its residents: the drain falls
    # back to killing and relaunching them in place, counted honestly.
    bed = bed_of(n=1, seed=64)
    home = bed.home
    bed.launch(tourist(home.name), Rights.all())
    bed.kernel.schedule(2.0, home.drain)
    bed.run(until=200.0, detect_deadlock=False)
    assert home.stats["drains"] == 1
    assert home.stats["drained_out"] == 0
    assert home.stats["drain_failed"] == 1
    assert home.stats["agents_killed_drain"] == 1
    # The relaunched resident resumed its tour and completed here.
    assert home.stats["agents_completed"] == 1
    assert healed_conservation_residual(bed.servers)() == 0


def test_a_refused_relaunch_strands_one_agent_and_the_drain_goes_on():
    # Nobody accepts the first tourist (its credentials expired at t=10)
    # and its relaunch here fails the same admission check: it is
    # stranded, but the drain must still migrate the second tourist.
    bed = bed_of(seed=66)
    s0, s1, s2 = bed.servers
    s0.launch(
        capture_image(
            tourist(s1.name, s2.name),
            credentials=bed.credentials_for(Rights.all(), lifetime=10.0),
            entry_method="run",
            home_site=s0.name,
        )
    )
    bed.launch(tourist(s1.name, s2.name), Rights.all())
    drain = []
    bed.kernel.schedule(20.0, lambda: drain.append(s1.drain()))
    bed.run(until=300.0, detect_deadlock=False)
    assert drain[0].exception is None
    assert s1.stats["drained_out"] == 1
    assert s1.stats["drain_failed"] == 1
    assert s1.stats["agents_killed_drain"] == 1
    [refused] = [
        r for r in s1.audit.records(operation="agent.drain") if not r.allowed
    ]
    assert "relaunch refused" in refused.detail
    assert "expired" in refused.detail
    # The valid tourist finished its tour at s2, not on the drained host.
    assert s2.stats["agents_completed"] == 1
    assert s1.stats["agents_completed"] == 0
    assert len(s1._threads) == 0
    assert healed_conservation_residual(bed.servers)() == 0
