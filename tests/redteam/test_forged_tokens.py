"""Red team: a rogue host forges a capability token for another host's resource.

Every server mints and redeems capability tokens under its own MAC key,
derived from its own key pair.  A malicious host therefore holds a fully
working token authority (its own) and can mint any grant it likes with
it.  What it cannot do is make another host accept the result: the
victim authenticates the token under its own key, and the forgery fails
before any fast-path grant is built.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import SecurityPolicy
from repro.core.resource import exported_methods
from repro.core.token import RING_VERIFIED, interface_digest, mask_of
from repro.credentials.rights import Rights
from repro.errors import SecurityException
from repro.naming.urn import URN

OWNER = URN.parse("urn:principal:victim.example/admin")

#: What the bearer agent saw at the victim.  ``wire`` is the token the
#: minting host handed the agent before it left.
OUTCOMES: dict[str, object] = {}


@register_trusted_agent_class
class TokenBearer(Agent):
    """Goes to the victim and redeems the token it was handed."""

    def run(self):
        if self.host.server_name() != self.victim:
            self.go(self.victim, "run")
        try:
            proxy = self.host.get_resource(self.target, token=OUTCOMES["wire"])
            proxy.put("written under the token")
            OUTCOMES["outcome"] = "accepted"
        except SecurityException as exc:
            OUTCOMES["outcome"] = type(exc).__name__
        self.complete()


def full_grant(authority, grantee: str, resource: URN, now: float):
    """Every method of the victim's buffer, minted under ``authority``."""
    return authority.mint(
        grantee=grantee,
        resource=str(resource),
        resource_kind=Buffer.__name__,
        iface_digest=interface_digest(Buffer),
        mask=mask_of(Buffer, exported_methods(Buffer)),
        ring=RING_VERIFIED,
        confine=False,
        lease=None,
        now=now,
    )


@pytest.mark.parametrize("minter", ["victim", "rogue"])
def test_a_token_is_good_only_at_the_host_that_minted_it(world, minter):
    """The victim's policy denies the agent outright, so the token is its
    only way in.  The victim's own grant is redeemed; the identical grant
    minted by the rogue host is refused as unauthentic."""
    OUTCOMES.clear()
    w = world(3)
    _, rogue, victim = w.servers
    name = URN.parse(f"urn:resource:{URN.parse(victim.name).authority}/vault")
    vault = Buffer(name, OWNER, SecurityPolicy.deny_all())
    victim.install_resource(vault)

    agent = TokenBearer()
    agent.victim = victim.name
    agent.target = str(name)
    image = w.launch(agent, Rights.all())
    authority = {"victim": victim, "rogue": rogue}[minter].token_authority
    OUTCOMES["wire"] = full_grant(
        authority, str(image.name), name, w.clock.now()
    ).to_wire()
    w.run(detect_deadlock=False)

    if minter == "victim":
        assert OUTCOMES["outcome"] == "accepted"
        assert vault.size() == 1
    else:
        assert OUTCOMES["outcome"] == "TokenInvalidError"
        assert vault.size() == 0
        assert victim.token_authority.stats["rejected"] == 1
