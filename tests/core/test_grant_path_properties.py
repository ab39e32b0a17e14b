"""The two binding entry points share one path from grant to proxy.

``get_proxy`` decides a grant from policy; ``redeem_token`` rebuilds one
from a fresh capability token.  Both hand it to the same manufacture
step, so for any policy, agent rights and protection ring (unmetered
grants: metered ones carry no token), a redeemed proxy must be
indistinguishable from a decided one: equal ``proxy_info()``, one entry
each in the per-domain revocation index, and both shed by the
supervision grant quota once it is full.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.errors import AccessDeniedError, ResourceOverloadedError
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group
from repro.server.supervisor import ResourceSupervisor, SupervisorConfig

import tests.conftest as shared

RES = URN.parse("urn:resource:store.com/grant-path")
OWNER = URN.parse("urn:principal:store.com/admin")
QUOTA = 2

# One PKI for every example (RSA key generation is the slow part).
ENV = shared.CoreEnv(seed=1500)

permissions = st.sampled_from(
    ["Buffer.*", "Buffer.put", "Buffer.get", "Buffer.size", "*", "resource_*"]
)
rights_values = st.builds(
    lambda patterns: Rights.of(*patterns),
    st.lists(permissions, min_size=1, max_size=3),
)
rules = st.builds(
    lambda kind_subject, grant, lifetime, confine: PolicyRule(
        kind_subject[0], kind_subject[1], grant,
        lifetime=lifetime, confine=confine,
    ),
    st.sampled_from([
        ("any", "*"),
        ("owner", "urn:principal:umn.edu/*"),
        ("owner", "urn:principal:evil.com/*"),
        ("agent", "urn:agent:umn.edu/agent-*"),
    ]),
    rights_values,
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=100.0)),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(
    policy_rules=st.lists(rules, min_size=1, max_size=3),
    rights=rights_values,
    ring=st.sampled_from([0, 1, 2]),
)
def test_redeemed_proxy_matches_decided_proxy(policy_rules, rights, ring):
    buf = Buffer(RES, OWNER, SecurityPolicy(rules=policy_rules))
    supervisor = ResourceSupervisor(
        SimpleNamespace(kernel=None, clock=ENV.clock),
        SupervisorConfig(domain_grant_quota=QUOTA),
    )
    supervisor.attach(buf)
    domain = ENV.agent_domain(rights)
    context = ENV.context(domain, ring=ring)
    credentials = domain.credentials
    try:
        decided = buf.get_proxy(credentials, context)
    except AccessDeniedError:
        assume(False)
    token = decided.capability_token()
    assert token is not None  # unmetered grants always carry one

    redeemed = buf.redeem_token(token, credentials, context)
    assert redeemed is not decided
    assert redeemed.proxy_info() == decided.proxy_info()
    assert redeemed.capability_token() is token  # reused, not re-minted

    # Both entry points count against the same per-domain quota.
    with pytest.raises(ResourceOverloadedError):
        buf.get_proxy(credentials, context)
    with pytest.raises(ResourceOverloadedError):
        buf.redeem_token(token, credentials, context)
    assert supervisor.stats["grants_shed"] == 2

    # Each issued proxy is filed once; refused attempts are not filed.
    with enter_group(ENV.server_domain.thread_group):
        assert buf.revoke_for(domain.domain_id) == QUOTA
    assert decided.proxy_info()["revoked"]
    assert redeemed.proxy_info()["revoked"]
