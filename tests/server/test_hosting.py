"""Integration tests: agents living on servers (Fig. 1 end-to-end)."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.agents.itinerary import Itinerary
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.server.testbed import Testbed

OWNER = URN.parse("urn:principal:store.com/admin")


def buffer_resource(server, local="buf", policy=None, **kw):
    authority = server.name.split(":")[2].split("/")[0]
    name = URN.parse(f"urn:resource:{authority}/{local}")
    buf = Buffer(name, OWNER, policy or SecurityPolicy.allow_all(), **kw)
    server.install_resource(buf)
    return name, buf


@register_trusted_agent_class
class DepositAgent(Agent):
    """Visits one server and deposits a value into its buffer."""

    def __init__(self) -> None:
        self.target = ""
        self.value = None

    def run(self):
        proxy = self.host.get_resource(self.target)
        proxy.put(self.value)
        self.complete({"deposited": self.value})


@register_trusted_agent_class
class TouringCollector(Agent):
    """Walks an itinerary, collecting buffer sizes, reporting at home."""

    def __init__(self) -> None:
        self.itinerary = None
        self.resource_local = "buf"
        self.sizes = []

    def run(self):
        proxy = self.host.get_resource(self._resource_name())
        self.sizes.append((self.host.server_name(), proxy.size()))
        self._next()

    def report(self):
        self.host.report_home({"sizes": self.sizes})
        self.complete()

    def _resource_name(self):
        authority = self.host.server_name().split(":")[2].split("/")[0]
        return f"urn:resource:{authority}/{self.resource_local}"

    def _next(self):
        stop = self.itinerary.advance()
        if stop is None:
            self.complete({"sizes": self.sizes})
        self.go(stop.server, stop.method)


class TestLocalHosting:
    def test_agent_uses_resource_and_completes(self):
        bed = Testbed(1)
        name, buf = buffer_resource(bed.home, policy=SecurityPolicy.allow_all(),
                                    capacity=4)
        agent = DepositAgent()
        agent.target = str(name)
        agent.value = "hello"
        image = bed.launch(agent, Rights.all())
        bed.run()
        assert buf.size() == 1
        assert buf.get() == "hello"
        status = bed.home.resident_status(image.name)
        assert status["status"] == "completed"
        assert status["bindings"] == 1
        assert bed.home.stats["agents_completed"] == 1

    def test_agent_without_rights_is_stopped(self):
        bed = Testbed(1)
        name, buf = buffer_resource(bed.home)
        agent = DepositAgent()
        agent.target = str(name)
        agent.value = "evil"
        image = bed.launch(agent, Rights.of("Buffer.get"))  # no put
        bed.run()
        assert buf.size() == 0
        status = bed.home.resident_status(image.name)
        assert status["status"] == "terminated"
        assert bed.home.stats["agents_killed_security"] == 1

    def test_buggy_agent_does_not_kill_server(self):
        @register_trusted_agent_class
        class Buggy(Agent):
            def run(self):
                raise ValueError("oops")

        bed = Testbed(1)
        bed.launch(Buggy(), Rights.all())
        bed.run()
        assert bed.home.stats["agents_failed"] == 1
        # Server still works: host another agent.
        name, buf = buffer_resource(bed.home)
        ok = DepositAgent()
        ok.target = str(name)
        ok.value = 1
        bed.launch(ok, Rights.all())
        bed.run()
        assert buf.size() == 1


class TestMigration:
    def make_tour(self, n=3):
        bed = Testbed(n, authority="store{i}.com")
        buffers = []
        for i, server in enumerate(bed.servers):
            _, buf = buffer_resource(server, capacity=10)
            buf.put(f"item-{i}")  # give each buffer a distinct size signature
            for _ in range(i):
                buf.put("pad")
            buffers.append(buf)
        return bed, buffers

    def test_itinerary_tour_and_report(self):
        bed, buffers = self.make_tour(3)
        stops = [s.name for s in bed.servers[1:]] + [bed.home.name]
        agent = TouringCollector()
        agent.itinerary = Itinerary.tour(
            [s.name for s in bed.servers], home=bed.home.name
        )
        agent.resource_local = "buf"
        image = bed.launch(agent, Rights.all())
        bed.run()
        # The report arrived home with one size per visited server.
        assert len(bed.home.reports) == 1
        report = bed.home.reports[0]
        assert report["agent"] == str(image.name)
        sizes = dict(report["payload"]["sizes"])
        assert set(sizes) == {s.name for s in bed.servers}
        assert sizes[bed.servers[1].name] == 2  # item + 1 pad
        # Every intermediate server shows a departed record.  Home, left
        # first and returned to last, answers with its newest residency.
        for server in bed.servers[1:-1]:
            assert server.resident_status(image.name)["status"] == "departed"
        assert [
            record.status for record in bed.home.domain_db.records_of(image.name)
        ] == ["departed", "completed"]
        assert bed.home.resident_status(image.name)["status"] == "completed"

    def test_name_service_tracks_migration(self):
        bed, _ = self.make_tour(2)
        agent = TouringCollector()
        agent.itinerary = Itinerary.tour([s.name for s in bed.servers])
        image = bed.launch(agent, Rights.all())
        assert bed.locate(image.name) == bed.home.name
        bed.run()
        assert bed.locate(image.name) == bed.servers[-1].name

    def test_transfer_stats(self):
        bed, _ = self.make_tour(2)
        agent = TouringCollector()
        agent.itinerary = Itinerary.tour([s.name for s in bed.servers])
        bed.launch(agent, Rights.all())
        bed.run()
        assert bed.home.stats["transfers_out"] == 1
        assert bed.servers[1].stats["transfers_in"] == 1
