"""Tests for credentials and cascaded delegation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.credentials.credentials import Credentials
from repro.credentials.delegation import DelegatedCredentials
from repro.credentials.rights import Rights
from repro.crypto.cert import CertificateAuthority
from repro.crypto.keys import KeyPair
from repro.errors import CredentialError, CredentialExpiredError
from repro.naming.urn import URN
from repro.util.clock import VirtualClock
from repro.util.rng import make_rng
from repro.util.serialization import decode, encode

OWNER = URN.parse("urn:principal:umn.edu/anand")
CREATOR = URN.parse("urn:principal:umn.edu/launcher-app")
AGENT = URN.parse("urn:agent:umn.edu/anand/shopper-1")
SERVER = URN.parse("urn:server:store.com/front")


@pytest.fixture(scope="module")
def setup():
    clock = VirtualClock()
    ca = CertificateAuthority("root-ca", make_rng(10, "ca"), clock)
    owner_keys = KeyPair.generate(make_rng(11, "owner"), bits=512)
    server_keys = KeyPair.generate(make_rng(12, "server"), bits=512)
    owner_cert = ca.issue(str(OWNER), owner_keys.public)
    server_cert = ca.issue(str(SERVER), server_keys.public)
    return clock, ca, owner_keys, owner_cert, server_keys, server_cert


def issue(setup, rights=None, lifetime=3600.0) -> Credentials:
    clock, ca, owner_keys, owner_cert, _, _ = setup
    return Credentials.issue(
        agent=AGENT,
        owner=OWNER,
        creator=CREATOR,
        owner_keys=owner_keys,
        owner_certificate=owner_cert,
        rights=rights if rights is not None else Rights.of("Buffer.*"),
        now=clock.now(),
        lifetime=lifetime,
    )


class TestCredentials:
    def test_issue_and_verify(self, setup):
        clock, ca, *_ = setup
        cred = issue(setup)
        cred.verify(ca, clock.now())
        assert cred.agent == AGENT and cred.owner == OWNER
        assert cred.rights.permits("Buffer.get")

    def test_expired_rejected(self, setup):
        clock, ca, *_ = setup
        cred = issue(setup, lifetime=10.0)
        with pytest.raises(CredentialExpiredError):
            cred.verify(ca, clock.now() + 11.0)

    def test_verified_credentials_still_expire(self, setup):
        """The body digest is memoized; the validity window is not."""
        clock, ca, *_ = setup
        cred = issue(setup, lifetime=10.0)
        cred.verify(ca, clock.now())
        with pytest.raises(CredentialExpiredError):
            cred.verify(ca, clock.now() + 11.0)

    def test_not_yet_valid_rejected(self, setup):
        _, ca, *_ = setup
        cred = issue(setup)
        with pytest.raises(CredentialExpiredError):
            cred.verify(ca, cred.issued_at - 1.0)

    def test_tampered_rights_rejected(self, setup):
        clock, ca, *_ = setup
        cred = issue(setup, rights=Rights.of("Buffer.get"))
        forged = dataclasses.replace(cred, rights=Rights.all())
        with pytest.raises(CredentialError, match="invalid owner signature"):
            forged.verify(ca, clock.now())

    def test_tampered_owner_rejected(self, setup):
        clock, ca, *_ = setup
        cred = issue(setup)
        forged = dataclasses.replace(
            cred, owner=URN.parse("urn:principal:evil.com/mallory")
        )
        with pytest.raises(CredentialError):
            forged.verify(ca, clock.now())

    def test_certificate_swap_rejected(self, setup):
        clock, ca, owner_keys, owner_cert, server_keys, server_cert = setup
        cred = issue(setup)
        forged = dataclasses.replace(cred, owner_certificate=server_cert)
        with pytest.raises(CredentialError):
            forged.verify(ca, clock.now())

    def test_untrusted_ca_rejected(self, setup):
        clock, _, *_ = setup
        other_ca = CertificateAuthority("other-ca", make_rng(13, "other"), clock)
        cred = issue(setup)
        with pytest.raises(CredentialError):
            cred.verify(other_ca, clock.now())

    def test_non_agent_subject_rejected(self, setup):
        clock, ca, owner_keys, owner_cert, *_ = setup
        with pytest.raises(CredentialError, match="agent URN"):
            Credentials.issue(
                agent=SERVER,  # wrong kind
                owner=OWNER,
                creator=CREATOR,
                owner_keys=owner_keys,
                owner_certificate=owner_cert,
                rights=Rights.all(),
                now=clock.now(),
            )

    def test_wrong_owner_cert_rejected_at_issue(self, setup):
        clock, ca, owner_keys, _, _, server_cert = setup
        with pytest.raises(CredentialError, match="names"):
            Credentials.issue(
                agent=AGENT,
                owner=OWNER,
                creator=CREATOR,
                owner_keys=owner_keys,
                owner_certificate=server_cert,
                rights=Rights.all(),
                now=clock.now(),
            )

    def test_nonpositive_lifetime_rejected(self, setup):
        with pytest.raises(CredentialError):
            issue(setup, lifetime=0.0)

    def test_serialization_roundtrip_still_verifies(self, setup):
        clock, ca, *_ = setup
        cred = issue(setup)
        restored = decode(encode(cred))
        assert restored == cred
        restored.verify(ca, clock.now())

    def test_any_bitflip_in_wire_form_detected(self, setup):
        clock, ca, *_ = setup
        cred = issue(setup)
        blob = bytearray(encode(cred))
        # Flip a byte inside the signature region (end of blob).
        blob[-5] ^= 0x01
        restored = decode(bytes(blob))
        with pytest.raises(CredentialError):
            restored.verify(ca, clock.now())


class TestDelegation:
    def test_wrap_and_verify(self, setup):
        clock, ca, *_ = setup
        chain = DelegatedCredentials.wrap(issue(setup))
        chain.verify(ca, clock.now())
        assert chain.effective_rights().permits("Buffer.get")

    def test_extend_attenuates(self, setup):
        clock, ca, _, _, server_keys, server_cert = setup
        chain = DelegatedCredentials.wrap(issue(setup))  # Buffer.*
        restricted = chain.extend(
            delegator=SERVER,
            delegator_keys=server_keys,
            delegator_certificate=server_cert,
            restriction=Rights.of("Buffer.get"),
            now=clock.now(),
        )
        restricted.verify(ca, clock.now())
        rights = restricted.effective_rights()
        assert rights.permits("Buffer.get")
        assert not rights.permits("Buffer.put")

    def test_delegation_cannot_amplify(self, setup):
        clock, ca, _, _, server_keys, server_cert = setup
        chain = DelegatedCredentials.wrap(issue(setup, rights=Rights.of("Buffer.get")))
        widened = chain.extend(
            delegator=SERVER,
            delegator_keys=server_keys,
            delegator_certificate=server_cert,
            restriction=Rights.all(),  # server "grants" everything
            now=clock.now(),
        )
        # Base grant still gates: nothing beyond Buffer.get is permitted.
        assert not widened.effective_rights().permits("Buffer.put")

    def test_link_tamper_detected(self, setup):
        clock, ca, _, _, server_keys, server_cert = setup
        chain = DelegatedCredentials.wrap(issue(setup)).extend(
            delegator=SERVER,
            delegator_keys=server_keys,
            delegator_certificate=server_cert,
            restriction=Rights.of("Buffer.get"),
            now=clock.now(),
        )
        link = chain.links[0]
        forged_link = dataclasses.replace(link, restriction=Rights.all())
        forged = DelegatedCredentials(base=chain.base, links=(forged_link,))
        with pytest.raises(CredentialError, match="invalid signature"):
            forged.verify(ca, clock.now())

    def test_dropped_link_detected(self, setup):
        clock, ca, _, _, server_keys, server_cert = setup
        chain = DelegatedCredentials.wrap(issue(setup))
        step1 = chain.extend(
            delegator=SERVER,
            delegator_keys=server_keys,
            delegator_certificate=server_cert,
            restriction=Rights.of("Buffer.get"),
            now=clock.now(),
        )
        step2 = step1.extend(
            delegator=SERVER,
            delegator_keys=server_keys,
            delegator_certificate=server_cert,
            restriction=Rights.of("Buffer.get"),
            now=clock.now(),
        )
        # Drop the middle link: digests no longer chain.
        spliced = DelegatedCredentials(base=chain.base, links=(step2.links[1],))
        with pytest.raises(CredentialError, match="chain"):
            spliced.verify(ca, clock.now())

    def test_expired_link_rejected(self, setup):
        clock, ca, _, _, server_keys, server_cert = setup
        chain = DelegatedCredentials.wrap(issue(setup)).extend(
            delegator=SERVER,
            delegator_keys=server_keys,
            delegator_certificate=server_cert,
            restriction=Rights.of("Buffer.get"),
            now=clock.now(),
            lifetime=5.0,
        )
        with pytest.raises(CredentialExpiredError, match="link"):
            chain.verify(ca, clock.now() + 6.0)

    def test_serialization_roundtrip(self, setup):
        clock, ca, _, _, server_keys, server_cert = setup
        chain = DelegatedCredentials.wrap(issue(setup)).extend(
            delegator=SERVER,
            delegator_keys=server_keys,
            delegator_certificate=server_cert,
            restriction=Rights.of("Buffer.get"),
            now=clock.now(),
        )
        restored = decode(encode(chain))
        assert restored == chain
        restored.verify(ca, clock.now())

    def test_quota_attenuates_through_chain(self, setup):
        clock, ca, _, _, server_keys, server_cert = setup
        base = issue(setup, rights=Rights.of("Buffer.*", quotas={"Buffer.put": 100}))
        chain = DelegatedCredentials.wrap(base).extend(
            delegator=SERVER,
            delegator_keys=server_keys,
            delegator_certificate=server_cert,
            restriction=Rights.of("Buffer.*", quotas={"Buffer.put": 7}),
            now=clock.now(),
        )
        assert chain.effective_rights().quota_for("Buffer.put") == 7
