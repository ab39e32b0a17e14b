"""Host-scoped trust state.

Each server mints capability tokens under its own MAC key, derived from
its own key pair, and keeps its own verification verdicts (certificates,
link signatures, credential chains) in one cache.  The only trust state
a world's hosts share is their epoch registry; two worlds in one process
share nothing.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.core.token import CapabilityToken
from repro.credentials.rights import Rights
from repro.crypto.keys import PublicKey
from repro.errors import TokenInvalidError
from repro.server.testbed import Testbed

AGENT = "urn:agent:umn.edu/owner/someone"


def mint(authority, now: float = 0.0) -> CapabilityToken:
    return authority.mint(
        grantee=AGENT, resource="urn:resource:site0.net/r",
        resource_kind="Buffer", iface_digest="d" * 16, mask=1, ring=1,
        confine=False, lease=None, now=now,
    )


@register_trusted_agent_class
class TrustCourier(Agent):
    """Visits its stops in order and completes at the last."""

    def __init__(self) -> None:
        self.stops: list[str] = []

    def run(self):
        if self.stops:
            self.go(self.stops.pop(0), "run")
        self.complete()


def test_a_token_minted_by_one_server_fails_authenticate_at_another():
    bed = Testbed(2)
    minter, other = bed.servers
    token = CapabilityToken.from_wire(mint(minter.token_authority).to_wire())
    with pytest.raises(TokenInvalidError):
        other.token_authority.authenticate(token)
    assert other.token_authority.stats["rejected"] == 1
    minter.token_authority.authenticate(token)
    # The key comes from the server's key pair, not from a random draw:
    # the same seed rebuilds the same key (a cold HMAC check passes).
    rebuilt = Testbed(2).home.token_authority
    rebuilt.authenticate(token)
    assert rebuilt.stats["validate_cold"] == 1


def test_two_worlds_share_no_epochs_or_token_keys():
    first, second = Testbed(2, seed=1), Testbed(2, seed=2)
    assert first.epochs is not second.epochs
    for bed in (first, second):
        for server in bed.servers:
            assert server.token_authority.registry is bed.epochs
    token = mint(first.home.token_authority)
    first.epochs.bump_holder(AGENT)
    assert not first.servers[1].token_authority.is_fresh(token, 0.0)
    assert second.epochs.holder_cell(AGENT).value == 0
    for server in second.servers:
        with pytest.raises(TokenInvalidError):
            server.token_authority.authenticate(token)


def test_a_second_world_repeats_every_rsa_check(monkeypatch):
    """Two identical worlds in one process: the second pays the same RSA
    verification work as the first, so no verdict crossed from one world
    (or host) to another.  Within a world, every check goes to its own
    host's one cache."""
    verifies = [0]
    verify = PublicKey.verify

    def counting(key, digest, signature):
        verifies[0] += 1
        return verify(key, digest, signature)

    monkeypatch.setattr(PublicKey, "verify", counting)

    def tour() -> int:
        bed = Testbed(3, seed=7)
        for server in bed.servers:
            cache = server.admission.credential_cache
            assert server.integrity.verdicts is cache
            assert len(cache) == 0
        home, s1, s2 = bed.servers
        agent = TrustCourier()
        agent.stops = [s1.name, s2.name, s1.name, home.name]
        bed.launch(agent, Rights.all())
        before = verifies[0]
        bed.run()
        assert home.stats["agents_completed"] == 1
        return verifies[0] - before

    first = tour()
    assert first > 0
    assert tour() == first
