"""Tests for multi-authority trust stores."""

from __future__ import annotations

import pytest

from repro.crypto.cert import CertificateAuthority
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.trust import TrustAnchor, TrustStore
from repro.errors import CredentialError, CredentialExpiredError
from repro.util.clock import VirtualClock
from repro.util.rng import make_rng


@pytest.fixture()
def clock():
    return VirtualClock()


@pytest.fixture()
def authorities(clock):
    return (
        CertificateAuthority("ca-east", make_rng(1, "east"), clock),
        CertificateAuthority("ca-west", make_rng(2, "west"), clock),
        CertificateAuthority("ca-rogue", make_rng(3, "rogue"), clock),
    )


@pytest.fixture()
def keys():
    return KeyPair.generate(make_rng(4, "subject"), bits=512)


def test_protocol_conformance(clock, authorities):
    east, *_ = authorities
    assert isinstance(TrustStore(clock), TrustAnchor)
    assert isinstance(east, TrustAnchor)


def test_validates_certs_from_any_trusted_authority(clock, authorities, keys):
    east, west, rogue = authorities
    store = TrustStore.of(clock, east, west)
    store.validate(east.issue("urn:principal:e.org/alice", keys.public))
    store.validate(west.issue("urn:principal:w.org/bob", keys.public))
    assert store.anchors() == ["ca-east", "ca-west"]
    assert len(store) == 2


def test_untrusted_issuer_rejected(clock, authorities, keys):
    east, _west, rogue = authorities
    store = TrustStore.of(clock, east)
    cert = rogue.issue("urn:principal:r.org/mallory", keys.public)
    with pytest.raises(CredentialError, match="untrusted authority"):
        store.validate(cert)


def test_rogue_ca_with_stolen_name_rejected(clock, keys):
    """Same issuer *name*, different key: the signature gives it away."""
    real = CertificateAuthority("shared-name", make_rng(5, "real"), clock)
    fake = CertificateAuthority("shared-name", make_rng(6, "fake"), clock)
    store = TrustStore.of(clock, real)
    with pytest.raises(CredentialError):
        store.validate(fake.issue("urn:principal:x.org/eve", keys.public))


def test_expired_certificate_rejected(clock, authorities, keys):
    east, *_ = authorities
    store = TrustStore.of(clock, east)
    cert = east.issue("urn:principal:e.org/alice", keys.public, lifetime=10.0)
    clock.advance(11.0)
    with pytest.raises(CredentialExpiredError):
        store.validate(cert)


def test_one_validation_runs_one_rsa_verify(clock, authorities, keys,
                                           monkeypatch):
    """The anchor's self-signature was checked by ``add_anchor``; a
    validation verifies only the certificate's own signature."""
    east, *_ = authorities
    store = TrustStore.of(clock, east)
    cert = east.issue("urn:principal:e.org/alice", keys.public)
    verifies = []
    verify = PublicKey.verify

    def counting(key, digest, signature):
        verifies.append(key)
        return verify(key, digest, signature)

    monkeypatch.setattr(PublicKey, "verify", counting)
    store.validate(cert)
    assert verifies == [east.public_key]


def test_expired_anchor_rejected(clock, keys):
    short = CertificateAuthority(
        "ca-short", make_rng(7, "short"), clock, lifetime=100.0
    )
    store = TrustStore.of(clock, short)
    clock.advance(90.0)
    cert = short.issue("urn:principal:s.org/alice", keys.public)
    store.validate(cert)
    clock.advance(20.0)  # the leaf is still in its window, the root is not
    with pytest.raises(CredentialExpiredError, match="ca-short"):
        store.validate(cert)


def test_anchor_must_be_self_signed(clock, authorities, keys):
    east, *_ = authorities
    store = TrustStore(clock)
    leaf = east.issue("urn:principal:e.org/alice", keys.public)
    with pytest.raises(CredentialError, match="self-signed root"):
        store.add_anchor(leaf)


def test_duplicate_anchor_rejected(clock, authorities):
    east, *_ = authorities
    store = TrustStore.of(clock, east)
    with pytest.raises(CredentialError, match="already trusted"):
        store.add_anchor(east.root_certificate)


def test_remove_anchor(clock, authorities, keys):
    east, west, _ = authorities
    store = TrustStore.of(clock, east, west)
    cert = west.issue("urn:principal:w.org/bob", keys.public)
    store.validate(cert)
    store.remove_anchor("ca-west")
    with pytest.raises(CredentialError):
        store.validate(cert)
    store.remove_anchor("ca-west")  # idempotent


def test_credentials_verify_through_trust_store(clock, authorities, keys):
    """The credential layer accepts a TrustStore wherever it took a CA."""
    from repro.credentials.credentials import Credentials
    from repro.credentials.rights import Rights
    from repro.naming.urn import URN

    east, west, _ = authorities
    owner = URN.parse("urn:principal:w.org/owner")
    cert = west.issue(str(owner), keys.public)
    cred = Credentials.issue(
        agent=URN.parse("urn:agent:w.org/owner/a1"),
        owner=owner,
        creator=owner,
        owner_keys=keys,
        owner_certificate=cert,
        rights=Rights.all(),
        now=clock.now(),
    )
    store = TrustStore.of(clock, east, west)
    cred.verify(store, clock.now())  # duck-typed trust anchor
    east_only = TrustStore.of(clock, east)
    with pytest.raises(CredentialError):
        cred.verify(east_only, clock.now())
