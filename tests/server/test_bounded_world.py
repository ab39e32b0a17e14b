"""Bounded worlds: a finished residency leaves a slim tombstone.

A server that hosts agents forever must hold a constant amount per
finished agent.  When a residency ends, its domain record becomes a
:class:`~repro.core.domain_db.DomainTombstone` in a bounded ring, and
the server drops the protection domain, thread group, binding records,
binding context and proxies.  Revocation still reaches tokens that rode
away from an ended domain, and status queries still answer for every
agent the ring remembers.  Caches of one-shot per-agent values (codec
frames, digests, verdicts, tokens, grants) and the audit ring stay at
bounds sized for the agents in flight.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.agents import integrity
from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.itinerary import Itinerary
from repro.agents.patterns import ItineraryAgent
from repro.apps.buffer import Buffer
from repro.core.access_protocol import AccessProtocol
from repro.core.domain_db import TOMBSTONE_RING, DomainTombstone
from repro.core.policy import SecurityPolicy
from repro.core.proxy import ResourceProxy
from repro.core.token import CapabilityToken
from repro.credentials.cache import credential_fingerprint
from repro.credentials.rights import Rights
from repro.errors import UnknownNameError
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group
from repro.server.testbed import Testbed
from repro.util import serialization

SEED = int(os.environ.get("REPRO_STRESS_SEED", "11"))
SERVERS = 4
AGENTS = 8
OWNER = URN.parse("urn:principal:store.com/admin")
OUTCOMES: dict[str, object] = {}

# The kinds a finished residency used to pin forever.
PINNED_KINDS = (
    "DomainRecord",
    "ProtectionDomain",
    "ThreadGroup",
    "BindingRecord",
    "BindingContext",
)


@pytest.fixture(autouse=True)
def _reset_outcomes():
    OUTCOMES.clear()
    yield
    OUTCOMES.clear()


def store_of(server) -> str:
    authority = URN.parse(server.name).authority
    return f"urn:resource:{authority}/store"


def tour_world() -> Testbed:
    bed = Testbed(SERVERS, seed=SEED)
    for server in bed.servers:
        server.install_resource(Buffer(
            URN.parse(store_of(server)), OWNER,
            SecurityPolicy.allow_all(confine=False), capacity=4,
        ))
    return bed


@register_trusted_agent_class
class BoundedTourist(ItineraryAgent):
    """Binds each stop's store and uses it, then reports home."""

    def visit(self, stop) -> None:
        store = self.host.get_resource(self.stores[stop.server])
        store.put(stop.server)
        self.seen.append(store.get())

    def finish(self) -> None:
        self.host.report_home({"seen": self.seen})
        self.complete()


def tour_wave(bed: Testbed, number: int) -> list:
    servers = bed.servers
    stores = {server.name: store_of(server) for server in servers}
    workers = servers[1:]
    images = []
    for slot in range(AGENTS):
        shift = slot % len(workers)
        route = workers[shift:] + workers[:shift]
        agent = BoundedTourist()
        agent.itinerary = Itinerary.tour([s.name for s in route + [servers[0]]])
        agent.stores = stores
        agent.seen = []
        images.append(bed.launch(
            agent, Rights.all(), agent_local=f"w{number:04d}-{slot}"
        ))
    bed.run()
    return images


def live_counts() -> dict[str, int]:
    gc.collect()
    counts = dict.fromkeys(PINNED_KINDS + ("proxies",), 0)
    for obj in gc.get_objects():
        name = type(obj).__name__
        if name in counts:
            counts[name] += 1
        elif isinstance(obj, ResourceProxy):
            counts["proxies"] += 1
    return counts


def assert_caches_within_bounds(bed: Testbed) -> None:
    """Every cache of one-shot per-agent values is at or below its bound."""
    assert len(serialization._ENCODE_CACHE) <= 512
    assert len(serialization._DECODE_CACHE) <= 512
    for memo in (integrity._link_tag, integrity._credentials_digest,
                 credential_fingerprint):
        assert 0 < memo.cache_info().currsize <= 256, memo
    for server in bed.servers:
        assert 0 < len(server.admission.credential_cache) <= 256
        assert 0 < len(server.token_authority._seen) <= 256
        for name in server.registry.names():
            resource = server.registry.lookup(name)
            if isinstance(resource, AccessProtocol):
                assert resource.grant_cache_stats()["size"] <= 256
        assert server.audit.capacity == 4096
        assert len(server.audit) <= 4096


def test_three_hundred_waves_pin_no_more_than_thirty():
    bed = tour_world()
    first = tour_wave(bed, 0)
    for number in range(1, 30):
        latest = tour_wave(bed, number)
    after_30 = live_counts()
    for number in range(30, 300):
        latest = tour_wave(bed, number)
    after_300 = live_counts()
    assert_caches_within_bounds(bed)
    # Home writes more than 4096 audit records over 300 waves: its ring
    # has dropped the oldest.
    assert bed.home.audit.dropped > 0

    # Every tour finished, and nothing was lost on the way.
    assert bed.home.stats["agents_completed"] == 300 * AGENTS
    assert len(bed.home.reports) == 300 * AGENTS
    for kind, count in after_30.items():
        assert abs(after_300[kind] - count) <= 0.05 * count, (
            f"{kind}: {count} live after 30 waves, {after_300[kind]} after 300"
        )

    # Each worker hosted 8 residencies a wave: its ring remembers the
    # latest TOMBSTONE_RING of them and counts every one.
    worker = bed.servers[1]
    assert len(worker.domain_db) == TOMBSTONE_RING
    assert worker.domain_db.status_counts() == {
        "running": 0, "departed": 300 * AGENTS, "completed": 0,
        "terminated": 0,
    }
    # An agent the ring remembers still has a status ...
    status = worker.resident_status(latest[-1].name)
    assert status["status"] == "departed"
    assert status["bindings"] == 1
    [tombstone] = worker.domain_db.records_of(latest[-1].name)
    assert isinstance(tombstone, DomainTombstone)
    # ... and one older than the ring is forgotten.
    with pytest.raises(UnknownNameError):
        worker.resident_status(first[0].name)


@register_trusted_agent_class
class LeavesAWorker(Agent):
    """Spawns a long-running worker at ``origin``, then departs."""

    def run(self):
        self.go(self.origin, "work")

    def work(self):
        self.host.spawn_thread(lambda: self.host.sleep(10_000.0))
        self.go(self.away, "stay")

    def stay(self):
        self.host.sleep(10_000.0)
        self.complete()


def test_a_lingering_worker_of_an_ended_residency_can_still_be_killed():
    bed = tour_world()
    origin, away = bed.servers[1], bed.servers[2]
    agent = LeavesAWorker()
    agent.origin, agent.away = origin.name, away.name
    image = bed.launch(agent, Rights.all())
    bed.run(until=100.0, detect_deadlock=False)
    [ended] = origin.domain_db.records_of(image.name)
    assert isinstance(ended, DomainTombstone) and ended.status == "departed"
    # The worker keeps the residency's thread group alive.
    group = ended.thread_group
    assert group is not None and len(group.live_threads()) == 1
    assert origin.terminate_resident(ended.domain_id)
    bed.run(until=200.0, detect_deadlock=False)
    assert group.live_threads() == []
    assert ended.status == "terminated"


@register_trusted_agent_class
class TokenCarrier(Agent):
    """Binds at ``origin``, carries the token on to ``away``, stays there."""

    def run(self):
        self.go(self.origin, "bind")

    def bind(self):
        proxy = self.host.get_resource(self.target)
        OUTCOMES["token"] = proxy.capability_token().to_wire().hex()
        self.go(self.away, "stay")

    def stay(self):
        OUTCOMES["abroad"] = self.host.server_name()
        self.host.sleep(10_000.0)  # alive elsewhere: its tokens live on
        self.complete()


def test_revoke_for_an_ended_domain_kills_the_token_it_carried_away():
    bed = tour_world()
    origin, away = bed.servers[1], bed.servers[2]
    carrier = TokenCarrier()
    carrier.origin, carrier.away = origin.name, away.name
    carrier.target = store_of(origin)
    image = bed.launch(carrier, Rights.all())
    bed.run(until=100.0, detect_deadlock=False)
    assert OUTCOMES["abroad"] == away.name
    token = CapabilityToken.from_wire(bytes.fromhex(OUTCOMES["token"]))
    authority = origin.token_authority

    # The residency at ``origin`` ended with the departure: a tombstone
    # remains, and departing bumped no epoch.
    [ended] = origin.domain_db.records_of(image.name)
    assert isinstance(ended, DomainTombstone)
    assert ended.status == "departed" and ended.binding_count == 1
    assert authority.is_fresh(token, bed.clock.now())

    store = origin.registry.lookup(URN.parse(store_of(origin)))
    with enter_group(origin.server_domain.thread_group):
        assert store.revoke_for(ended.domain_id) == 1
    assert not authority.is_fresh(token, bed.clock.now())
