"""Capability-token lifecycle: mint, redeem, revoke-by-epoch, re-mint.

The token is the sparse access matrix as a MAC-signed ticket (section
5.5 meets the classic CAPABILITY pattern): minted at ``get_proxy``,
carried across migration, redeemed in O(1) without a policy consult.
These tests pin the security boundary around that fast path:

* theft (presentation by a non-grantee) fails closed,
* tampering (MAC mismatch, non-canonical wire form) is rejected outright,
* an epoch bump revokes every outstanding token in one increment,
* staleness is *graceful* when policy still grants (transparent
  re-mint) and *fail-closed* when it no longer does.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.core.token import (
    CapabilityToken,
    EpochRegistry,
    TokenAuthority,
    interface_digest,
    mask_of,
    methods_of,
)
from repro.credentials.rights import Rights
from repro.errors import (
    CapabilityConfinementError,
    MethodDisabledError,
    ProxyRevokedError,
    TokenInvalidError,
)
from repro.naming.urn import URN

RES = URN.parse("urn:resource:store.com/buf")
RES2 = URN.parse("urn:resource:store.com/buf2")
OWNER = URN.parse("urn:principal:store.com/admin")


def open_policy() -> SecurityPolicy:
    return SecurityPolicy.allow_all(confine=False)


def make_proxy(env, *, policy=None, rights=None, name=RES, **buffer_kw):
    buf = Buffer(name, OWNER, policy or open_policy(), **buffer_kw)
    domain = env.agent_domain(rights or Rights.all())
    proxy = buf.get_proxy(domain.credentials, env.context(domain))
    return buf, domain, proxy


class TestMinting:
    def test_unmetered_grant_carries_token(self, env):
        buf, domain, proxy = make_proxy(env)
        token = proxy.capability_token()
        assert token is not None
        assert token.grantee == str(domain.credentials.agent)
        assert token.resource == str(RES)
        assert token.resource_kind == "Buffer"
        assert token.iface_digest == interface_digest(Buffer)
        assert methods_of(Buffer, token.mask) == proxy.proxy_info()["enabled"]

    def test_metered_grant_has_no_token(self, env):
        policy = SecurityPolicy(
            rules=[PolicyRule("any", "*", Rights.all(), metered=True,
                              confine=False)]
        )
        buf, _, proxy = make_proxy(env, policy=policy)
        assert proxy.capability_token() is None
        proxy.put("still works")  # the slow path is unaffected
        assert proxy.get() == "still works"

    def test_mask_reflects_selective_disabling(self, env):
        _, _, proxy = make_proxy(
            env, rights=Rights.of("Buffer.get", "Buffer.size")
        )
        token = proxy.capability_token()
        assert token.permits(mask_of(Buffer, ["get"]))
        assert not token.permits(mask_of(Buffer, ["put"]))

    def test_wire_roundtrip_is_lossless(self, env):
        _, _, proxy = make_proxy(env)
        token = proxy.capability_token()
        assert CapabilityToken.from_wire(token.to_wire()) == token


class TestWireRejection:
    def test_junk_rejected(self):
        with pytest.raises(TokenInvalidError):
            CapabilityToken.from_wire(b"not a token at all" + b"x" * 32)

    def test_truncated_rejected(self):
        with pytest.raises(TokenInvalidError):
            CapabilityToken.from_wire(b"short")

    def test_wrong_version_rejected(self, env):
        _, _, proxy = make_proxy(env)
        wire = proxy.capability_token().to_wire()
        with pytest.raises(TokenInvalidError, match="version"):
            CapabilityToken.from_wire(b"cap9" + wire[4:])

    def test_non_canonical_rejected(self, env):
        _, _, proxy = make_proxy(env)
        token = proxy.capability_token()
        # Upper-case hex re-parses to the same mask but re-encodes
        # differently — the MAC input would de-sync.
        packed = token.packed().replace(
            format(token.mask, "x").encode(), format(token.mask, "X").encode(), 1
        )
        if packed != token.packed():  # mask with no a-f digit: skip silently
            with pytest.raises(TokenInvalidError, match="canonical"):
                CapabilityToken.from_wire(packed + token.tag)


class TestRedemption:
    def test_redeem_fast_path_consults_no_policy(self, env):
        buf, domain, proxy = make_proxy(env)
        token = proxy.capability_token()
        cache_before = dict(buf.grant_cache_stats())
        minted_before = buf._authority().stats["minted"]
        redeemed = buf.redeem_token(
            token, domain.credentials, env.context(domain)
        )
        assert buf.grant_cache_stats() == cache_before  # no decision ran
        assert buf._authority().stats["minted"] == minted_before
        assert redeemed.capability_token() == token
        redeemed.put("via token")
        assert redeemed.get() == "via token"

    def test_redeem_accepts_wire_bytes_via_attributes(self, env):
        # The proxy manufactured from a parsed wire token behaves
        # identically to one from the in-memory token object.
        buf, domain, proxy = make_proxy(env)
        parsed = CapabilityToken.from_wire(proxy.capability_token().to_wire())
        redeemed = buf.redeem_token(parsed, domain.credentials,
                                    env.context(domain))
        assert redeemed.proxy_info()["enabled"] == proxy.proxy_info()["enabled"]

    def test_theft_fails_closed(self, env):
        buf, _, proxy = make_proxy(env)
        token = proxy.capability_token()
        thief = env.agent_domain(Rights.all())
        with pytest.raises(CapabilityConfinementError, match="granted to"):
            buf.redeem_token(token, thief.credentials, env.context(thief))

    def test_tampered_tag_rejected(self, env):
        buf, domain, proxy = make_proxy(env)
        token = proxy.capability_token()
        bad = dataclasses.replace(
            token, tag=bytes([token.tag[0] ^ 1]) + token.tag[1:]
        )
        with pytest.raises(TokenInvalidError, match="authentication"):
            buf.redeem_token(bad, domain.credentials, env.context(domain))

    def test_widened_mask_rejected(self, env):
        buf, domain, proxy = make_proxy(
            env, rights=Rights.of("Buffer.get", "Buffer.size")
        )
        token = proxy.capability_token()
        forged = dataclasses.replace(token, mask=mask_of(Buffer, ["put"]))
        with pytest.raises(TokenInvalidError):
            buf.redeem_token(forged, domain.credentials, env.context(domain))

    def test_wrong_resource_falls_back_to_policy(self, env):
        buf1, domain, proxy = make_proxy(env)
        buf2 = Buffer(RES2, OWNER, open_policy())
        buf2._token_authority = buf1._authority()  # one host's two resources
        token = proxy.capability_token()
        redeemed = buf2.redeem_token(
            token, domain.credentials, env.context(domain)
        )
        # Full authorization ran against buf2; the proxy is buf2's.
        assert redeemed.resource_name() == RES2
        assert redeemed.capability_token().resource == str(RES2)

    def test_wrong_interface_digest_falls_back(self, env):
        buf, domain, proxy = make_proxy(env)
        good = proxy.capability_token()
        authority = buf._authority()
        stale_iface = authority.mint(
            grantee=good.grantee, resource=good.resource,
            resource_kind=good.resource_kind, iface_digest="0" * 16,
            mask=good.mask, ring=good.ring, confine=good.confine,
            lease=good.lease, now=env.clock.now(),
        )
        cache_before = buf.grant_cache_stats()["misses"]
        redeemed = buf.redeem_token(
            stale_iface, domain.credentials, env.context(domain)
        )
        assert redeemed.capability_token().iface_digest == good.iface_digest
        assert buf.grant_cache_stats()["misses"] >= cache_before

    def test_set_policy_stales_tokens_for_redemption(self, env):
        buf, domain, proxy = make_proxy(env)
        token = proxy.capability_token()
        buf.set_policy(SecurityPolicy(
            rules=[PolicyRule("any", "*",
                              Rights.of("Buffer.get", "Buffer.size"),
                              confine=False)]
        ))
        redeemed = buf.redeem_token(
            token, domain.credentials, env.context(domain)
        )
        # The resource-epoch bump forced a re-decide under the new policy.
        assert "put" not in redeemed.proxy_info()["enabled"]
        with pytest.raises(MethodDisabledError):
            redeemed.put("x")


class TestEpochRevocation:
    def test_holder_bump_with_unchanged_policy_re_mints(self, env):
        buf, domain, proxy = make_proxy(env)
        old = proxy.capability_token()
        buf._authority().registry.bump_holder(old.grantee)
        proxy.put("survives")  # transparent refresh, not an error
        fresh = proxy.capability_token()
        assert fresh.holder_epoch == old.holder_epoch + 1
        assert fresh.mask == old.mask

    def test_holder_bump_with_revoked_policy_fails_closed(self, env):
        buf, domain, proxy = make_proxy(env)
        token = proxy.capability_token()
        buf.set_policy(SecurityPolicy.deny_all())
        buf._authority().registry.bump_holder(token.grantee)
        with pytest.raises(ProxyRevokedError, match="revoked out from under"):
            proxy.put("x")
        # Fail-closed is sticky: the proxy is now plain revoked.
        with pytest.raises(ProxyRevokedError):
            proxy.size()

    def test_refresh_to_metered_grant_fails_closed(self, env):
        buf, domain, proxy = make_proxy(env)
        token = proxy.capability_token()
        buf.set_policy(SecurityPolicy(
            rules=[PolicyRule("any", "*", Rights.all(), metered=True,
                              confine=False)]
        ))
        buf._authority().registry.bump_holder(token.grantee)
        # A meter cannot be conjured mid-grant: re-bind through get_proxy.
        with pytest.raises(ProxyRevokedError):
            proxy.put("x")

    def test_revoke_for_stales_redeemed_copies(self, env):
        from repro.sandbox.threadgroup import enter_group

        buf, domain, proxy = make_proxy(env)
        token = proxy.capability_token()
        with enter_group(env.server_domain.thread_group):
            buf.revoke_for(domain.domain_id)
        authority = buf._authority()
        assert not authority.is_fresh(token, env.clock.now())

    def test_revoke_all_stales_via_resource_epoch(self, env):
        from repro.sandbox.threadgroup import enter_group

        buf, domain, proxy = make_proxy(env)
        token = proxy.capability_token()
        with enter_group(env.server_domain.thread_group):
            buf.revoke_all()
        assert not buf._authority().is_fresh(token, env.clock.now())

    def test_ttl_expiry_re_mints_transparently(self, env):
        buf, domain, proxy = make_proxy(env)
        old = proxy.capability_token()
        authority = buf._authority()
        env.clock.advance(authority.ttl + 1.0)
        proxy.put("after ttl")
        fresh = proxy.capability_token()
        assert fresh is not old
        assert fresh.expires_at > old.expires_at
        assert proxy.get() == "after ttl"


class TestAuthority:
    def test_warm_validation_skips_the_mac(self):
        registry = EpochRegistry()
        authority = TokenAuthority(b"k" * 32, registry=registry)
        token = authority.mint(
            grantee="urn:agent:x/a", resource="urn:resource:x/r",
            resource_kind="Buffer", iface_digest="d" * 16, mask=3,
            ring=1, confine=False, lease=None, now=0.0,
        )
        authority.authenticate(token)
        assert authority.stats["validate_warm"] == 1  # mint pre-warmed it
        assert authority.stats["validate_cold"] == 0

    def test_cold_validation_verifies_and_caches(self):
        registry = EpochRegistry()
        minter = TokenAuthority(b"k" * 32, registry=registry)
        checker = TokenAuthority(b"k" * 32, registry=registry)  # same key
        token = minter.mint(
            grantee="urn:agent:x/a", resource="urn:resource:x/r",
            resource_kind="Buffer", iface_digest="d" * 16, mask=3,
            ring=1, confine=False, lease=None, now=0.0,
        )
        checker.authenticate(token)
        checker.authenticate(token)
        assert checker.stats["validate_cold"] == 1
        assert checker.stats["validate_warm"] == 1

    def test_foreign_key_rejected(self):
        registry = EpochRegistry()
        minter = TokenAuthority(b"k" * 32, registry=registry)
        other = TokenAuthority(b"j" * 32, registry=registry)
        token = minter.mint(
            grantee="urn:agent:x/a", resource="urn:resource:x/r",
            resource_kind="Buffer", iface_digest="d" * 16, mask=3,
            ring=1, confine=False, lease=None, now=0.0,
        )
        with pytest.raises(TokenInvalidError):
            other.authenticate(token)
        assert other.stats["rejected"] == 1

    def test_is_fresh_tracks_both_epochs_and_ttl(self):
        registry = EpochRegistry()
        authority = TokenAuthority(b"k" * 32, ttl=100.0, registry=registry)
        token = authority.mint(
            grantee="urn:agent:x/a", resource="urn:resource:x/r",
            resource_kind="Buffer", iface_digest="d" * 16, mask=3,
            ring=1, confine=False, lease=None, now=0.0,
        )
        assert authority.is_fresh(token, 50.0)
        registry.bump_holder("urn:agent:x/a")
        assert not authority.is_fresh(token, 50.0)
        fresh = authority.mint(
            grantee="urn:agent:x/a", resource="urn:resource:x/r",
            resource_kind="Buffer", iface_digest="d" * 16, mask=3,
            ring=1, confine=False, lease=None, now=0.0,
        )
        assert authority.is_fresh(fresh, 50.0)
        registry.bump_resource("urn:resource:x/r")
        assert not authority.is_fresh(fresh, 50.0)
        remint = authority.mint(
            grantee="urn:agent:x/a", resource="urn:resource:x/r",
            resource_kind="Buffer", iface_digest="d" * 16, mask=3,
            ring=1, confine=False, lease=None, now=0.0,
        )
        assert not authority.is_fresh(remint, 101.0)  # past the ttl

    def test_cell_cap_eviction_fails_stale_not_open(self):
        registry = EpochRegistry()
        registry._CELL_CAP = 8
        first = registry.holder_cell("holder-0")
        first.value = 7
        for i in range(1, 9):
            registry.holder_cell(f"holder-{i}")
        # The oldest cells were evicted; a re-fetch is a fresh zero cell,
        # so any token minted under the old value reads as stale.
        refetched = registry.holder_cell("holder-0")
        assert refetched is not first
        assert refetched.value == 0
