"""Restart-time journal recovery interleaved with an active partition.

PR 2 pinned the calm-path recovery story: a crashed sender re-offers
journaled in-flight departures under the *same* transfer id, and the
receiver's dedup table answers idempotently.  These tests interleave
that recovery with a named partition that is still cutting the links
when the server comes back: the re-offer must keep retrying, land
exactly once after the heal, and never duplicate or strand the agent.
The membership plane rides along — peers that confirmed the crashed
server dead must believe its post-restart heartbeats only because the
incarnation number moved.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.itinerary import Itinerary
from repro.agents.patterns import ItineraryAgent
from repro.agents.transfer import capture_image
from repro.credentials.rights import Rights
from repro.errors import NetworkError, UnknownNameError
from repro.naming.urn import URN
from repro.net.adversary import Adversary
from repro.obs.slo import healed_conservation_residual
from repro.server.recovery import CHECKPOINT_APP_KIND, directory_vetoes
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread
from repro.util.retry import RetryPolicy
from repro.util.serialization import decode, encode


class AckDropper(Adversary):
    """Deterministically delete the first ``count`` messages of ``kind``."""

    def __init__(self, kind: str, count: int = 1) -> None:
        self.kind = kind
        self.remaining = count
        self.dropped = 0

    def intercept(self, message, now):
        if message.kind == self.kind and self.remaining > 0:
            self.remaining -= 1
            self.dropped += 1
            return []
        return [message]


@register_trusted_agent_class
class OneWayHopper(Agent):
    def __init__(self) -> None:
        self.hops = []

    def run(self):
        if self.hops:
            self.go(self.hops.pop(0), "run")
        self.complete({"ended_at": self.host.server_name()})


def selfheal_pair(seed=91):
    return Testbed(
        2,
        seed=seed,
        self_healing=True,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(
                attempts=4, base_delay=1.0, jitter=0.0
            ),
        },
    )


def test_reoffer_lands_exactly_once_after_partition_heals():
    bed = selfheal_pair()
    home, dest = bed.home, bed.servers[1]
    # Drop the transfer *ack* (the first secure data frame dest->home,
    # well before the first heartbeat at t=2): the agent is admitted at
    # dest, but home's journal still holds the departure as in-flight.
    tap = AckDropper("sec.data", count=1)
    bed.network.link(dest.name, home.name).add_tap(tap)
    agent = OneWayHopper()
    agent.hops = [dest.name]
    image = bed.launch(agent, Rights.all())
    # Crash before the retransmission can learn the truth; while home is
    # down a partition window opens, and it is *still open* when the
    # server restarts and starts re-offering.
    bed.faults().crash(home, at=1.0, restart_at=10.0)
    bed.faults().named_partition(
        "win", [home.name], [dest.name], at=8.0, heal_at=18.0
    )
    # Up to just before the heal: recovery has been retrying into the
    # partition and the departure record is still unresolved.
    bed.run(until=17.9, detect_deadlock=False)
    assert tap.dropped == 1
    assert home.stats["restarts"] == 1
    assert len(home._journal) == 1
    assert home.stats["recoveries_delivered"] == 0
    # After the heal the next retry gets through.  The pre-crash offer
    # had already landed, so the receiver's dedup table answers the
    # re-offer idempotently: one admission, ever.
    bed.run(until=90.0, detect_deadlock=False)
    assert dest.stats["agents_hosted"] == 1
    assert dest.stats["transfers_duplicate_suppressed"] == 1
    assert home.stats["recoveries_attempted"] == 1
    assert home.stats["recoveries_delivered"] == 1
    assert home.stats["recoveries_returned_home"] == 0
    assert len(home._journal) == 0
    assert home.resident_status(image.name)["status"] == "departed"
    # The agent itself noticed nothing: it completed at dest, once.
    assert dest.stats["agents_completed"] == 1


def test_restarted_server_rejoins_with_a_new_incarnation():
    bed = selfheal_pair(seed=92)
    home, dest = bed.home, bed.servers[1]
    bed.faults().crash(home, at=1.0, restart_at=12.0)
    bed.run(until=40.0, detect_deadlock=False)
    # home fell silent before its first heartbeat: dest walked it
    # through suspected into confirmed-dead ...
    assert any(
        state == "confirmed-dead" and peer == home.name
        for _, state, peer in dest.membership.log
    )
    # ... and only believed the comeback because restart() bumped the
    # incarnation past the one it had confirmed dead.
    assert dest.membership.stats["peer_revivals"] == 1
    assert dest.membership.state_of(home.name) == "alive"
    assert home.membership.incarnation == 1  # bumped from 0 at restart
    assert dest.membership.view_of(home.name).incarnation == 1
    # No journaled departures existed, so recovery had nothing to do.
    assert home.stats["recoveries_attempted"] == 0


# -- flapping host: rebirth-triggered recovery --------------------------------
#
# A crash+restart cycle *faster* than the confirm-death threshold kills
# the host's residents without ever firing the confirmed-dead callback:
# flap safety holds the view at "suspected" until the new incarnation's
# heartbeat clears it.  The rebirth callback sweeps the checkpoint store
# instead, probing the reborn host per agent so a host that still
# accounts for the agent vetoes the re-home.


@register_trusted_agent_class
class DwellingTourist(ItineraryAgent):
    dwell = 60.0

    def __init__(self) -> None:
        super().__init__()
        self.visited: list[str] = []

    def visit(self, stop):
        self.visited.append(self.host.server_name())
        self.host.sleep(self.dwell)

    def finish(self):
        self.complete({"visited": self.visited})


def test_flapped_host_residents_are_rehomed_after_probe():
    bed = Testbed(
        3,
        seed=93,
        self_healing=True,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(
                attempts=3, base_delay=1.0, jitter=0.0
            ),
        },
    )
    home, s1, s2 = bed.servers
    agent = DwellingTourist()
    agent.itinerary = Itinerary.tour([s1.name, s2.name])
    bed.launch(agent, Rights.all())
    # The tourist is dwelling at s1 when the flap hits: a 7s outage,
    # well inside the detector's confirm-death threshold.
    bed.faults().crash(s1, at=5.5, restart_at=12.5)
    bed.run(until=300.0, detect_deadlock=False)
    # Flap safety held: nobody ever confirmed s1 dead ...
    assert not any(
        state == "confirmed-dead" for _, state, _ in home.membership.log
    )
    # ... yet the crash really did kill the resident.
    assert s1.stats["agents_killed_crash"] == 1
    # The comeback heartbeat carried the bumped incarnation; home's
    # rebirth sweep probed s1 (which no longer accounts for the agent)
    # and re-homed from the escrow checkpoint.
    assert home.membership.stats["incarnation_advances"] >= 1
    assert s1.recovery.stats["probes_answered"] == 1
    assert home.recovery.stats["rehomes_vetoed_resident"] == 0
    rehomed = (
        home.recovery.stats["rehomes_placed"]
        + home.recovery.stats["rehomes_local"]
    )
    assert rehomed == 1
    assert home.recovery.rehome_log[0]["dead"] == s1.name
    # Exactly one completion, and the books balance after healing.
    assert sum(s.stats["agents_completed"] for s in bed.servers) == 1
    assert healed_conservation_residual(bed.servers)() == 0


def test_journal_recovery_is_vetoed_when_agent_was_rehomed_meanwhile():
    """The two recovery planes must not both resurrect one agent.

    An agent is journaled in-flight at s1 (its destination s2 is dead)
    when s1 hard-crashes for longer than the confirm-death threshold.
    The home site's escrow re-homing relaunches the agent while s1 is
    still down; when s1 finally restarts, its own journal recovery
    must notice — via the naming directory, which a newer admission
    always updates — that the entry is stale, and resolve it without
    re-offering.  Otherwise the agent forks.
    """
    bed = Testbed(
        3,
        seed=95,
        self_healing=True,
        server_kwargs={
            "transfer_timeout": 5.0,
            "transfer_retry": RetryPolicy(
                attempts=4, base_delay=1.0, jitter=0.0
            ),
        },
    )
    home, s1, s2 = bed.servers
    s2.endpoint.close()  # the journaled destination is dead throughout
    agent = DwellingTourist()
    agent.dwell = 2.0
    agent.itinerary = Itinerary.tour([s1.name, s2.name])
    image = bed.launch(agent, Rights.all())
    # The departure s1->s2 is parked in s1's journal, retrying, when s1
    # dies; the 14s outage is past the confirm-death threshold.
    bed.faults().crash(s1, at=4.0, restart_at=18.0)
    bed.run(until=300.0, detect_deadlock=False)
    # Home confirmed s1 dead and re-homed from escrow while s1 was down
    # (s2 being dead too, the agent relaunched at home, the always-legal
    # fallback).
    assert home.recovery.stats["rehomes_local"] == 1
    # The restarted s1 found the stale journal entry and stood down.
    assert s1.stats["recoveries_attempted"] == 1
    assert s1.stats["recoveries_superseded"] == 1
    assert s1.stats["recoveries_delivered"] == 0
    assert s1.stats["recovery_stranded"] == 0
    assert len(s1._journal) == 0
    # One line of history: the agent completed exactly once.
    statuses = [
        r.status
        for server in bed.servers
        for r in server.domain_db.records_of(image.name)
    ]
    assert statuses.count("completed") == 1
    assert statuses.count("running") == 0
    assert healed_conservation_residual(bed.servers)() == 0


def test_home_relaunch_after_crash_passes_admission():
    """Journal recovery relaunches at home only what admission accepts.

    The departure to a dead s1 is journaled when home crashes; by the
    restart the agent's credentials (lifetime 10) have expired, so the
    relaunch at home is refused like any launch or arrival would be and
    the agent is stranded instead of running on stale credentials.
    """
    bed = selfheal_pair(seed=96)
    home, s1 = bed.servers
    s1.crash()
    agent = DwellingTourist()
    agent.itinerary = Itinerary.tour([s1.name])
    credentials = bed.credentials_for(Rights.all(), lifetime=10.0)
    # Registered like Testbed.launch does, so the directory veto lets
    # journal recovery go ahead.
    token = bed.name_service.register(credentials.agent, home.name, {})
    home.launch(
        capture_image(
            agent,
            credentials=credentials,
            entry_method="run",
            home_site=home.name,
            attributes={"ns_token": token},
        )
    )
    bed.faults().crash(home, at=2.0, restart_at=15.0)
    bed.run(until=300.0, detect_deadlock=False)
    assert home.stats["recoveries_attempted"] == 1
    assert home.stats["recoveries_returned_home"] == 0
    assert home.stats["recovery_stranded"] == 1
    assert home.stats["agents_hosted"] == 1  # the launch, never again
    assert sum(s.stats["agents_completed"] for s in bed.servers) == 0
    assert len(home._journal) == 0
    [stranded] = home.audit.records(operation="atp.recover")
    assert not stranded.allowed
    assert "relaunch refused" in stranded.detail


# -- the one directory veto both recovery planes consult ----------------------


class StubDirectory:
    """Answers every lookup with one location, or raises one error."""

    def __init__(self, answer) -> None:
        self.answer = answer
        self.lookups = 0

    def lookup(self, name):
        self.lookups += 1
        if isinstance(self.answer, Exception):
            raise self.answer
        return SimpleNamespace(location=self.answer)


NO_DIRECTORY = object()

# Journal recovery allows the restarted sender and the journaled
# destination; re-homing allows only the dead host.
ALLOWED = {"journal": ("s1", "s2"), "rehome": ("s1",)}

VETO_TABLE = [
    # (case, directory answer, {caller: vetoed})
    ("no name service", NO_DIRECTORY, {"journal": False, "rehome": False}),
    ("unknown name", UnknownNameError("gone"), {"journal": True, "rehome": True}),
    ("unreachable", NetworkError("down"), {"journal": False, "rehome": False}),
    ("in the allowed set", "s1", {"journal": False, "rehome": False}),
    ("journaled destination", "s2", {"journal": False, "rehome": True}),
    ("elsewhere", "s3", {"journal": True, "rehome": True}),
    ("no location", None, {"journal": False, "rehome": False}),
]


@pytest.mark.parametrize("caller", sorted(ALLOWED))
@pytest.mark.parametrize(
    "answer, expected", [row[1:] for row in VETO_TABLE],
    ids=[row[0] for row in VETO_TABLE],
)
def test_directory_veto_table(caller, answer, expected):
    agent = URN.parse("urn:agent:site0.net/a")
    if answer is NO_DIRECTORY:
        assert directory_vetoes(None, agent, ALLOWED[caller]) is expected[caller]
        return
    directory = StubDirectory(answer)
    assert directory_vetoes(directory, agent, ALLOWED[caller]) is expected[caller]
    assert directory.lookups == 1


def test_checkpoint_probe_reports_residency():
    bed = selfheal_pair(seed=94)
    home, dest = bed.home, bed.servers[1]
    agent = DwellingTourist()
    agent.itinerary = Itinerary.tour([dest.name])
    image = bed.launch(agent, Rights.all())
    answers: dict[str, str] = {}

    def prober():
        bed.kernel.current_thread().sleep(2.0)  # let the agent settle in
        channel = home.secure.connect(dest.name)
        for label, name in (
            ("resident", str(image.name)),
            ("unknown", "urn:agent:ghost"),
        ):
            reply = decode(
                channel.call(
                    CHECKPOINT_APP_KIND,
                    encode({"op": "probe", "agent": name}),
                    timeout=5.0,
                )
            )
            answers[label] = reply["state"]

    SimThread(bed.kernel, prober, "prober").start()
    bed.run(until=10.0, detect_deadlock=False)
    assert answers == {"resident": "resident", "unknown": "unknown"}
    assert dest.recovery.stats["probes_answered"] == 2
