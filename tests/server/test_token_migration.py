"""Capability tokens across migration: carry, redeem in O(1), die on retire.

The token is the piece of the access matrix an agent takes with it
(section 5.5): minted at its first bind, carried in agent state across
hops, redeemed on return without a policy consult.  Retirement semantics
matter — a *departed* agent keeps its authority (it is mid-tour), while
a completed or terminated one has its holder epoch bumped, killing every
token it ever carried, wherever the copies went.
"""

from __future__ import annotations

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import SecurityPolicy
from repro.core.token import CapabilityToken
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.server.testbed import Testbed

OWNER = URN.parse("urn:principal:store.com/admin")

OUTCOMES: dict[str, object] = {}


def install_buffer(server, local="buf", **kw):
    authority = server.name.split(":")[2].split("/")[0]
    name = URN.parse(f"urn:resource:{authority}/{local}")
    buf = Buffer(name, OWNER, SecurityPolicy.allow_all(confine=False), **kw)
    server.install_resource(buf)
    return name, buf


@register_trusted_agent_class
class TouringClient(Agent):
    """Binds at home, tours a remote server, redeems its token on return."""

    def run(self):
        here = self.host.server_name()
        if not self.token_hex:  # first hop: bind and remember the ticket
            proxy = self.host.get_resource(self.target)
            proxy.put("stashed before the tour")
            self.token_hex = proxy.capability_token().to_wire().hex()
            OUTCOMES["minted_token"] = self.token_hex
            self.go(self.away, "run")
        elif here == self.away:  # abroad: the ticket stays fresh mid-tour
            token = CapabilityToken.from_wire(bytes.fromhex(self.token_hex))
            OUTCOMES["fresh_mid_tour"] = OUTCOMES["authority"].is_fresh(
                token, self.host.now()
            )
            self.go(self.home_name, "run")
        else:  # back home: redeem — O(1), no re-mint, no policy consult
            authority = OUTCOMES["authority"]
            minted_before = authority.stats["minted"]
            proxy = self.host.get_resource(
                self.target, token=bytes.fromhex(self.token_hex)
            )
            OUTCOMES["redeem_minted_delta"] = (
                authority.stats["minted"] - minted_before
            )
            OUTCOMES["redeemed_value"] = proxy.get()
            OUTCOMES["redeemed_token_matches"] = (
                proxy.capability_token().to_wire().hex() == self.token_hex
            )
            self.complete()


def test_token_survives_tour_and_redeems_without_reminting():
    OUTCOMES.clear()
    bed = Testbed(2)
    name, _ = install_buffer(bed.home)
    OUTCOMES["authority"] = bed.home.token_authority
    agent = TouringClient()
    agent.target = str(name)
    agent.token_hex = ""
    agent.home_name = bed.home.name
    agent.away = bed.servers[1].name
    image = bed.launch(agent, Rights.all())
    bed.run()
    # Departing home did NOT revoke: the agent is mid-tour, not retired.
    assert OUTCOMES["fresh_mid_tour"] is True
    # The return redeem was the fast path: same token, zero new mints.
    assert OUTCOMES["redeem_minted_delta"] == 0
    assert OUTCOMES["redeemed_token_matches"] is True
    assert OUTCOMES["redeemed_value"] == "stashed before the tour"
    # Completion retired the agent: its holder epoch moved, so every
    # copy of the token it carried is now stale — revoked in O(1).
    token = CapabilityToken.from_wire(
        bytes.fromhex(OUTCOMES["minted_token"])
    )
    assert not bed.home.token_authority.is_fresh(token, bed.clock.now())


@register_trusted_agent_class
class TokenLingerer(Agent):
    """Binds, stashes its ticket, then sleeps far past the test horizon."""

    def run(self):
        proxy = self.host.get_resource(self.target)
        OUTCOMES["wire"] = proxy.capability_token().to_wire().hex()
        self.host.sleep(10_000.0)  # never completes on its own
        self.complete()


def test_terminated_agent_tokens_revoked_everywhere():
    OUTCOMES.clear()
    bed = Testbed(1)
    name, _ = install_buffer(bed.home)
    agent = TokenLingerer()
    agent.target = str(name)
    image = bed.launch(agent, Rights.all())
    bed.run(until=50.0)  # long enough to bind, far short of the sleep
    token = CapabilityToken.from_wire(bytes.fromhex(OUTCOMES["wire"]))
    assert bed.home.token_authority.is_fresh(token, bed.clock.now())
    domain_id = bed.home.domain_db.by_agent(image.name).domain_id
    assert bed.home.terminate_resident(domain_id)
    # The kill bumped the holder epoch: the stashed ticket is dead.
    assert not bed.home.token_authority.is_fresh(token, bed.clock.now())
