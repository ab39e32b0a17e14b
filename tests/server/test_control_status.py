"""Remote status queries, owner control commands, and transfer under attack."""

from __future__ import annotations

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.credentials.rights import Rights
from repro.net.adversary import Eavesdropper, Tamperer
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread
from repro.util.rng import make_rng
from repro.util.serialization import decode, encode


@register_trusted_agent_class
class Sleeper(Agent):
    """Occupies a server for a long time (a runaway agent)."""

    def __init__(self) -> None:
        self.naps = 1000

    def run(self):
        for _ in range(self.naps):
            self.host.sleep(10.0)
        self.complete("woke up")


@register_trusted_agent_class
class Mover(Agent):
    def __init__(self) -> None:
        self.destination = ""
        self.payload = "sensitive itinerary data: credit-card=4242424242424242"

    def run(self):
        if self.destination:
            dest, self.destination = self.destination, ""
            self.go(dest, "run")
        self.complete()


@register_trusted_agent_class
class Revisitor(Agent):
    """Tours its stops, then sleeps at the last one."""

    def __init__(self) -> None:
        self.stops: list[str] = []

    def run(self):
        if self.stops:
            self.go(self.stops.pop(0), "run")
        self.host.sleep(10_000.0)
        self.complete()


def secure_query(bed, from_server, to_server, app_kind, body) -> dict:
    """Run a blocking secure call from one server to another."""
    result: list[dict] = []

    def client():
        channel = from_server.secure.connect(to_server.name)
        result.append(decode(channel.call(app_kind, encode(body))))

    SimThread(bed.kernel, client, "query", on_error="store").start()
    # Bounded run: long-lived agents (Sleeper) must not be run to completion.
    bed.run(until=bed.clock.now() + 50.0, detect_deadlock=False)
    assert result, "query produced no reply"
    return result[0]


class TestStatusQueries:
    def test_remote_status_of_resident(self):
        bed = Testbed(2)
        agent = Sleeper()
        image = bed.launch(agent, Rights.all(), at=bed.servers[1])
        bed.run(until=5.0)
        reply = secure_query(
            bed, bed.home, bed.servers[1], "agent.status",
            {"agent": str(image.name)},
        )
        assert reply["status"] == "running"
        assert reply["server"] == bed.servers[1].name
        assert reply["owner"] == str(bed.owner)

    def test_status_of_unknown_agent(self):
        bed = Testbed(2)
        reply = secure_query(
            bed, bed.home, bed.servers[1], "agent.status",
            {"agent": "urn:agent:umn.edu/ghost"},
        )
        assert "error" in reply


class TestControlCommands:
    def test_home_site_can_terminate(self):
        bed = Testbed(2)
        image = bed.launch(Sleeper(), Rights.all())
        # Move the agent's record onto home itself: launch at home; control
        # must come from home_site == home.name, i.e. a local loop. Use a
        # second server as host instead, launched with home as home_site.
        bed.run(until=1.0)
        # Agent is at home; terminate from home itself is local - test the
        # remote case: host at server 1 with home_site = home.
        agent2 = Sleeper()
        image2 = bed.launch(agent2, Rights.all(), at=bed.servers[1])
        bed.run(until=2.0)
        # image2's home_site is servers[1] (launch target). Terminate from
        # its own home site:
        reply = secure_query(
            bed, bed.servers[1], bed.servers[1], "agent.control",
            {"agent": str(image2.name), "command": "terminate"},
        )
        assert reply == {"status": "terminated"}
        bed.run(detect_deadlock=False)
        assert (
            bed.servers[1].resident_status(image2.name)["status"] == "terminated"
        )
        assert bed.servers[1].stats["agents_terminated_by_owner"] == 1

    def test_home_terminates_the_running_copy_on_a_revisited_server(self):
        """home -> s1 -> s2 -> s1: s1 holds the departed first visit and
        the running second one; status and control reach the running one."""
        bed = Testbed(3)
        s1, s2 = bed.servers[1], bed.servers[2]
        agent = Revisitor()
        agent.stops = [s1.name, s2.name, s1.name]
        image = bed.launch(agent, Rights.all())
        bed.run(until=50.0, detect_deadlock=False)
        assert s1.resident_status(image.name)["status"] == "running"
        reply = secure_query(
            bed, bed.home, s1, "agent.control",
            {"agent": str(image.name), "command": "terminate"},
        )
        assert reply == {"status": "terminated"}
        bed.run(detect_deadlock=False)
        assert [r.status for r in s1.domain_db.records_of(image.name)] == [
            "departed", "terminated",
        ]
        assert s1.domain_db.residents() == []
        assert s1.stats["agents_terminated_by_owner"] == 1

    def test_non_home_site_cannot_terminate(self):
        bed = Testbed(3)
        image = bed.launch(Sleeper(), Rights.all())  # home_site = home
        bed.run(until=1.0)
        reply = secure_query(
            bed, bed.servers[2], bed.home, "agent.control",
            {"agent": str(image.name), "command": "terminate"},
        )
        assert "error" in reply
        assert bed.home.stats["control_refused"] == 1
        assert bed.home.resident_status(image.name)["status"] == "running"

    def test_unknown_command(self):
        bed = Testbed(2)
        image = bed.launch(Sleeper(), Rights.all(), at=bed.servers[1])
        bed.run(until=1.0)
        reply = secure_query(
            bed, bed.servers[1], bed.servers[1], "agent.control",
            {"agent": str(image.name), "command": "dance"},
        )
        assert "unknown command" in reply["error"]


class TestTransferUnderAttack:
    def test_agent_state_not_visible_on_wire(self):
        bed = Testbed(2)
        spy = Eavesdropper()
        link, _ = (
            bed.network.link(bed.home.name, bed.servers[1].name),
            None,
        )
        link.add_tap(spy)
        agent = Mover()
        agent.destination = bed.servers[1].name
        bed.launch(agent, Rights.all())
        bed.run()
        assert spy.captured  # the transfer crossed the tapped link
        assert not spy.saw_substring(b"4242424242424242")
        assert bed.servers[1].stats["transfers_in"] == 1

    def test_tampered_transfer_detected_and_agent_not_started(self):
        bed = Testbed(2, server_kwargs={"transfer_timeout": 30.0})
        agent = Mover()
        agent.destination = bed.servers[1].name
        image = bed.launch(agent, Rights.all())
        bed.run(until=0.001)  # let the launch start
        # Attack every subsequent frame (handshake already done? attack all)
        link = bed.network.link(bed.home.name, bed.servers[1].name)
        link.add_tap(Tamperer(make_rng(9, "t"), rate=1.0))
        bed.run(detect_deadlock=False)
        # Receiver rejected the corrupted frame; sender timed out.
        assert bed.servers[1].stats["transfers_in"] == 0
        assert bed.home.stats["transfers_failed"] == 1
        assert bed.home.resident_status(image.name)["status"] == "terminated"
