"""Section 5.2 subcontracting: forwarding servers attenuate credentials."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.server.testbed import Testbed


@register_trusted_agent_class
class HopAndUse(Agent):
    """Runs at each hop, trying both put and get on the local buffer."""

    def __init__(self) -> None:
        self.hops = []
        self.outcomes = []

    def run(self):
        authority = self.host.server_name().split(":")[2].split("/")[0]
        try:
            proxy = self.host.get_resource(f"urn:resource:{authority}/buf")
            outcome = {"server": self.host.server_name(), "enabled": sorted(
                proxy.proxy_info()["enabled"]
            )}
        except Exception as exc:  # noqa: BLE001
            outcome = {"server": self.host.server_name(), "error": str(exc)}
        self.outcomes.append(outcome)
        if self.hops:
            nxt = self.hops.pop(0)
            self.go(nxt, "run")
        self.host.report_home({"outcomes": self.outcomes})
        self.complete()


def install_buffer(server):
    authority = server.name.split(":")[2].split("/")[0]
    buf = Buffer(URN.parse(f"urn:resource:{authority}/buf"),
                 URN.parse(f"urn:principal:{authority}/o"),
                 SecurityPolicy.allow_all(confine=False), capacity=4)
    server.install_resource(buf)
    return buf


def test_forwarding_server_attenuates_rights():
    bed = Testbed(3)
    for server in bed.servers:
        install_buffer(server)
    # The middle server subcontracts onward agents down to read-only.
    bed.servers[1].forward_restriction = Rights.of(
        "Buffer.get", "Buffer.size", "Buffer.resource_*"
    )
    agent = HopAndUse()
    agent.hops = [bed.servers[1].name, bed.servers[2].name]
    bed.launch(agent, Rights.of("Buffer.*"))
    bed.run()
    outcomes = bed.home.reports[-1]["payload"]["outcomes"]
    by_server = {o["server"]: o for o in outcomes}
    # Full interface at home and at the restricting server itself...
    assert "put" in by_server[bed.home.name]["enabled"]
    assert "put" in by_server[bed.servers[1].name]["enabled"]
    # ...but after server 1 forwarded it, put is gone downstream.
    assert "put" not in by_server[bed.servers[2].name]["enabled"]
    assert "get" in by_server[bed.servers[2].name]["enabled"]


def test_attenuation_is_permanent_down_the_chain():
    """Even a later permissive hop cannot restore what was removed."""
    bed = Testbed(4)
    for server in bed.servers:
        install_buffer(server)
    bed.servers[1].forward_restriction = Rights.of("Buffer.get", "Buffer.size")
    bed.servers[2].forward_restriction = Rights.all()  # "grants" everything
    agent = HopAndUse()
    agent.hops = [s.name for s in bed.servers[1:]]
    bed.launch(agent, Rights.of("Buffer.*"))
    bed.run()
    outcomes = bed.home.reports[-1]["payload"]["outcomes"]
    final = outcomes[-1]
    assert final["server"] == bed.servers[3].name
    assert "put" not in final["enabled"]


def test_forwarded_credentials_still_verify_at_admission():
    bed = Testbed(3)
    for server in bed.servers:
        install_buffer(server)
    bed.servers[1].forward_restriction = Rights.of("Buffer.get", "Buffer.size")
    agent = HopAndUse()
    agent.hops = [bed.servers[1].name, bed.servers[2].name]
    bed.launch(agent, Rights.of("Buffer.*"))
    bed.run()
    # The extended chain passed admission at server 2 (no refusals).
    assert bed.servers[2].stats["transfers_in"] == 1
    assert bed.servers[2].stats["transfers_refused"] == 0


def test_delegation_visible_in_credential_chain():
    bed = Testbed(2)
    install_buffer(bed.servers[1])
    bed.home.forward_restriction = Rights.of("Buffer.get", "Buffer.size")
    agent = HopAndUse()
    agent.hops = [bed.servers[1].name]
    # The credentials server 1 admitted the agent with (its finished
    # residency's record no longer holds the domain).
    admitted = []
    start_resident = bed.servers[1]._start_resident
    bed.servers[1]._start_resident = lambda img, *rest: (
        admitted.append(img), start_resident(img, *rest)
    )[1]
    image = bed.launch(agent, Rights.of("Buffer.*"))
    bed.run()
    [arrival] = admitted
    assert arrival.name == image.name
    creds = arrival.credentials
    assert len(creds.links) == 1
    assert str(creds.links[0].delegator) == bed.home.name
