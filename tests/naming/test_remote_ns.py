"""The name service as a network service (remote registry)."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.errors import (
    DuplicateNameError,
    NamingError,
    NetworkError,
    ReproError,
    RetryExhaustedError,
    UnknownNameError,
)
from repro.naming.registry import error_reply, raise_reply_error
from repro.naming.remote import RemoteNameService
from repro.naming.urn import URN
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread
from repro.util.retry import RetryPolicy
from repro.util.serialization import decode


@register_trusted_agent_class
class RemoteNsHopper(Agent):
    def __init__(self) -> None:
        self.dest = ""

    def run(self):
        if self.dest and self.host.server_name() != self.dest:
            dest, self.dest = self.dest, ""
            self.go(dest, "run")
        self.host.sleep(5.0)  # stay resident long enough to be observed
        self.complete()


@register_trusted_agent_class
class Locator(Agent):
    """Asks the (remote) name service where another agent is."""

    def __init__(self) -> None:
        self.target = ""

    def run(self):
        self.host.sleep(1.0)  # let the mover finish moving
        self.host.report_home({"located": self.host.locate(self.target)})
        self.complete()


def make_bed(**kw):
    return Testbed(2, remote_name_service=True, **kw)


def test_registry_node_exists():
    bed = make_bed()
    assert bed.registry_node == "urn:server:registry.net/ns"
    assert isinstance(bed.home.name_service, RemoteNameService)


def test_stub_roundtrip_over_network():
    bed = make_bed()
    stub = bed.home.name_service
    results = {}

    def client():
        name = URN.parse("urn:agent:x.net/probe")
        token = stub.register(name, bed.home.name, {"k": 1})
        results["contains"] = stub.contains(name)
        record = stub.lookup(name)
        results["record"] = (str(record.name), record.location, record.attributes)
        stub.relocate(name, token, bed.servers[1].name)
        results["moved"] = stub.lookup(name).location
        stub.unregister(name, token)
        results["after"] = stub.contains(name)

    SimThread(bed.kernel, client, "client").start()
    bed.run()
    assert results["contains"] is True
    assert results["record"] == ("urn:agent:x.net/probe", bed.home.name, {"k": 1})
    assert results["moved"] == bed.servers[1].name
    assert results["after"] is False
    # The operations really crossed the wire to the registry node.
    assert bed.network.link(bed.home.name, bed.registry_node).stats["bytes"] > 0


def test_error_kinds_survive_the_wire():
    bed = make_bed()
    stub = bed.home.name_service
    outcomes = {}

    def client():
        name = URN.parse("urn:agent:x.net/dup")
        try:
            stub.lookup(URN.parse("urn:agent:x.net/ghost"))
        except UnknownNameError:
            outcomes["unknown"] = True
        stub.register(name, bed.home.name)
        try:
            stub.register(name, bed.home.name)
        except DuplicateNameError:
            outcomes["duplicate"] = True
        try:
            stub.relocate(name, "bad-token", "anywhere")
        except NamingError:
            outcomes["badtoken"] = True

    SimThread(bed.kernel, client, "client").start()
    bed.run()
    assert outcomes == {"unknown": True, "duplicate": True, "badtoken": True}


@pytest.mark.parametrize(
    "exc, raised",
    [
        (UnknownNameError("u"), UnknownNameError),
        (DuplicateNameError("d"), DuplicateNameError),
        (NamingError("n"), NamingError),
        (ReproError("r"), NamingError),  # any other failure is plain naming
    ],
)
def test_error_reply_round_trips_to_the_client_exception(exc, raised):
    """Both name servers reply through ``error_reply`` and every client
    decodes through ``raise_reply_error``: one protocol, one map."""
    with pytest.raises(NamingError) as info:
        raise_reply_error(decode(error_reply(exc)))
    assert type(info.value) is raised
    assert str(info.value) == str(exc)
    raise_reply_error({"ok": True})  # a success reply raises nothing


def test_error_kind_mapping_covers_every_kind():
    """`_ERROR_KINDS` round-trip at the protocol layer: each server-side
    kind string reconstructs the matching client-side exception, and an
    unknown kind (or an unknown op) degrades to plain NamingError."""
    from repro.naming.registry import _ERROR_KINDS

    assert _ERROR_KINDS == {
        "unknown": UnknownNameError,
        "duplicate": DuplicateNameError,
        "naming": NamingError,
    }
    bed = make_bed()
    stub = bed.home.name_service
    outcomes = {}

    def client():
        try:
            stub._call({"op": "frobnicate"})
        except NamingError as exc:
            outcomes["unknown_op"] = (type(exc), str(exc))

    SimThread(bed.kernel, client, "client").start()
    bed.run()
    kind, message = outcomes["unknown_op"]
    assert kind is NamingError  # exactly, not a subclass
    assert "frobnicate" in message


def test_retry_exhaustion_surfaces_network_error_context():
    """With the registry unreachable, idempotent calls surface
    RetryExhaustedError (a NetworkError) carrying attempts + last error."""
    bed = make_bed()
    for server in bed.servers:
        bed.network.set_link_state(server.name, bed.registry_node, False)
    stub = RemoteNameService(
        bed.home.secure, bed.registry_node, timeout=2.0,
        retry=RetryPolicy(attempts=3, base_delay=0.5, jitter=0.0),
    )
    outcomes = {}

    def client():
        try:
            stub.lookup(URN.parse("urn:agent:x.net/nowhere"))
        except RetryExhaustedError as exc:
            outcomes["exc"] = exc

    SimThread(bed.kernel, client, "client").start()
    bed.run(detect_deadlock=False)
    exc = outcomes["exc"]
    assert isinstance(exc, NetworkError)  # callers catch the family
    assert exc.attempts == 3
    assert isinstance(exc.last_error, NetworkError)
    assert exc.context["attempts"] == 3
    assert "ns.lookup" in str(exc)
    assert stub.stats["retries"] == 2  # a drop-channel between each attempt


def test_relocate_async_failure_counts_metrics_and_audits():
    """A lost relocation is diagnosable: server stats (`ns_relocate_failed`,
    counted on each host), the stub's scraped `ns_client.relocate_failed`
    and the audit log all record it."""
    bed = make_bed(server_kwargs={"transfer_timeout": 5.0})
    for server in bed.servers:
        bed.network.set_link_state(server.name, bed.registry_node, False)
    mover = RemoteNsHopper()
    mover.dest = bed.servers[1].name
    image = bed.launch(mover, Rights.all(), agent_local="mover4")
    bed.run(detect_deadlock=False)
    assert bed.servers[1].stats["ns_relocate_failed"] == 1
    # The client stub's own failure counter moved too, and is its
    # server's: a scrape sees it.
    assert bed.servers[1].name_service.stats["relocate_failed"] == 1
    s1 = bed.servers[1].name
    assert bed.scrape()[f"ns_client.relocate_failed{{server={s1}}}"] == 1
    # World-wide: the launch-time and the arrival-time relocation.
    assert sum(s.stats["ns_relocate_failed"] for s in bed.servers) == 2
    audited = [
        rec for rec in bed.servers[1].audit
        if rec.operation == "ns.relocate_async"
    ]
    assert len(audited) == 1
    assert audited[0].allowed is False
    assert str(image.name) == audited[0].domain
    assert bed.servers[1].name in audited[0].target


def test_migration_updates_remote_registry():
    bed = make_bed()
    mover = RemoteNsHopper()
    mover.dest = bed.servers[1].name
    image = bed.launch(mover, Rights.all(), agent_local="mover")
    locator = Locator()
    locator.target = str(image.name)
    bed.launch(Locator(), Rights.all(), agent_local="unused")  # warm nothing
    loc = Locator()
    loc.target = str(image.name)
    bed.launch(loc, Rights.all(), agent_local="locator")
    bed.run()
    # The authoritative registry saw the relocation...
    assert bed.name_service.lookup(image.name).location == bed.servers[1].name
    # ...and the locator agent observed it through the *remote* stub.
    located = [r["payload"]["located"] for r in bed.home.reports
               if "located" in r.get("payload", {})]
    assert bed.servers[1].name in located


def test_rerouted_relocation_still_succeeds():
    """Cutting one registry link is survivable: traffic reroutes."""
    bed = make_bed(server_kwargs={"transfer_timeout": 10.0})
    bed.network.set_link_state(bed.servers[1].name, bed.registry_node, False)
    mover = RemoteNsHopper()
    mover.dest = bed.servers[1].name
    image = bed.launch(mover, Rights.all(), agent_local="mover2")
    bed.run(detect_deadlock=False)
    assert bed.servers[1].resident_status(image.name)["status"] == "completed"
    # The relocation went through server 0's link instead.
    assert bed.servers[1].stats["ns_relocate_failed"] == 0
    assert bed.name_service.lookup(image.name).location == bed.servers[1].name


def test_registry_partition_does_not_break_hosting():
    """With the registry fully unreachable, hosting continues; only the
    location record goes stale (and the failures are counted)."""
    bed = make_bed(server_kwargs={"transfer_timeout": 5.0})
    for server in bed.servers:
        bed.network.set_link_state(server.name, bed.registry_node, False)
    mover = RemoteNsHopper()
    mover.dest = bed.servers[1].name
    image = bed.launch(mover, Rights.all(), agent_local="mover3")
    bed.run(detect_deadlock=False)
    assert bed.servers[1].resident_status(image.name)["status"] == "completed"
    # Both the launch-time and arrival-time relocations failed, audited.
    assert bed.home.stats["ns_relocate_failed"] == 1
    assert bed.servers[1].stats["ns_relocate_failed"] == 1
    # The registry still shows the stale (home) location.
    assert bed.name_service.lookup(image.name).location == bed.home.name
