"""Every counter is a host's: access-control counts land on the server
whose resource saw the event, and a federated scrape sees all of them.

Each ``AgentServer`` registers its token authority's ``stats`` once as
``access`` on its telemetry unit; its resources and their proxies count
through that authority.  There is no process-wide registry to switch on.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.errors import AccessDeniedError, MethodDisabledError
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group
from repro.server.testbed import Testbed
from repro.sim.threads import SimThread

OWNER = URN.parse("urn:principal:store.com/admin")

# Proxies the agent hands back, so the revocation below finds them live.
KEPT: list = []


def _install(server, local: str, policy: SecurityPolicy) -> tuple[str, Buffer]:
    authority = server.name.split(":")[2].split("/")[0]
    name = URN.parse(f"urn:resource:{authority}/{local}")
    buf = Buffer(name, OWNER, policy)
    server.install_resource(buf)
    return str(name), buf


@register_trusted_agent_class
class _Prober(Agent):
    """At ``dest``: a grant (and its mint), a denied call, a redeem and a
    denied grant, then completes (its holder epoch is bumped)."""

    def run(self):
        if self.host.server_name() != self.dest:
            self.go(self.dest, "run")
        proxy = self.host.get_resource(self.open)
        proxy.put("x")
        try:
            proxy.size()
        except MethodDisabledError:
            pass
        wire = proxy.capability_token().to_wire()
        KEPT.extend([proxy, self.host.get_resource(self.open, token=wire)])
        try:
            self.host.get_resource(self.closed)
        except AccessDeniedError:
            pass
        self.complete()


@pytest.fixture
def world():
    KEPT.clear()
    bed = Testbed(2, seed=31)
    s1 = bed.servers[1]
    put_only = SecurityPolicy(rules=[PolicyRule(
        "any", "*", Rights.of("Buffer.put"), rule_id="put-only",
    )])
    agent = _Prober()
    agent.dest = s1.name
    agent.open, buf = _install(s1, "open", put_only)
    agent.closed, _ = _install(s1, "closed", SecurityPolicy.deny_all())
    bed.launch(agent, Rights.all())
    bed.run()
    with enter_group(s1.server_domain.thread_group):
        assert buf.revoke_all() == 2
    yield bed
    KEPT.clear()


def _access(scrape: dict, server) -> dict[str, int]:
    suffix = f"{{server={server.name}}}"
    return {
        key[len("access."):-len(suffix)]: value
        for key, value in scrape.items()
        if key.startswith("access.") and key.endswith(suffix)
    }


def test_access_events_count_on_the_resource_host_only(world):
    scrape = world.scrape()
    s0, s1 = world.servers
    counts = _access(scrape, s1)
    assert counts["grants_issued"] == 1
    assert counts["minted"] == 1
    assert counts["proxy_denied_disabled"] == 1
    assert counts["redeem_hits"] == 1
    assert counts["grants_denied"] == 1
    assert counts["proxies_revoked"] == 2
    assert counts["resource_bumps"] == 1
    assert counts["holder_bumps"] == 1  # the agent completed at s1
    assert counts == s1.token_authority.stats.as_dict()
    # s0 only launched the agent: none of these events happened there.
    assert _access(scrape, s0) == {}


def test_federated_scrape_carries_the_access_counts(world):
    out = {}

    def scrape():
        out["scrape"] = world.cluster_scrape()

    SimThread(world.kernel, scrape, name="scraper").start()
    world.run()
    federated = {
        key: value
        for key, value in out["scrape"].items()
        if isinstance(value, int) and not key.startswith("telemetry.")
    }
    omniscient = {
        key: value
        for key, value in world.scrape().items()
        if isinstance(value, int)
    }
    assert federated == omniscient
    assert _access(federated, world.servers[1])["redeem_hits"] == 1
