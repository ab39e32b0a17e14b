"""Tests for key objects and certificates."""

from __future__ import annotations

import pytest

from repro.crypto.cert import Certificate, CertificateAuthority
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import (
    CredentialError,
    CredentialExpiredError,
    CryptoError,
    SerializationError,
    SignatureError,
)
from repro.util.clock import VirtualClock
from repro.util.rng import make_rng
from repro.util.serialization import decode, encode


@pytest.fixture(scope="module")
def keys() -> KeyPair:
    return KeyPair.generate(make_rng(1, "keys"), bits=512)


@pytest.fixture()
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture()
def ca(clock) -> CertificateAuthority:
    return CertificateAuthority("minnesota-ca", make_rng(2, "ca"), clock)


class TestKeys:
    def test_sign_verify_through_objects(self, keys):
        digest = sha256(b"hello")
        sig = keys.private.sign(digest)
        keys.public.verify(digest, sig)
        with pytest.raises(SignatureError):
            keys.public.verify(sha256(b"other"), sig)

    def test_kem_through_objects(self, keys):
        ct, shared = keys.public.encapsulate(make_rng(3, "kem"))
        assert keys.private.decapsulate(ct) == shared

    def test_public_key_serialization_roundtrip(self, keys):
        assert decode(encode(keys.public)) == keys.public

    def test_malformed_public_key_state_rejected(self, keys):
        blob = encode(keys.public)
        # decode-time validation: forge a state with n = 1
        evil = encode({"n": 1, "e": 65537})
        tagged = blob[: blob.index(b"M")] + evil
        with pytest.raises((SerializationError, CryptoError)):
            decode(tagged)

    def test_private_key_not_serializable(self, keys):
        with pytest.raises(SerializationError, match="unregistered"):
            encode(keys.private)

    def test_private_key_repr_leaks_nothing(self, keys):
        text = repr(keys.private)
        assert str(keys.public.n) not in text
        assert "PrivateKey" in text

    def test_fingerprint_stable_and_short(self, keys):
        assert keys.public.fingerprint() == keys.public.fingerprint()
        assert len(keys.public.fingerprint()) == 16


class TestCertificates:
    def test_issue_and_validate(self, ca, keys):
        cert = ca.issue("alice", keys.public)
        ca.validate(cert)  # no raise
        assert cert.subject == "alice"
        assert cert.issuer == "minnesota-ca"

    def test_root_certificate_self_signed(self, ca):
        ca.validate(ca.root_certificate)
        assert ca.root_certificate.subject == ca.name

    def test_issue_under_ca_name_rejected(self, ca, keys):
        with pytest.raises(CredentialError):
            ca.issue("minnesota-ca", keys.public)

    def test_expired_certificate_rejected(self, ca, keys, clock):
        cert = ca.issue("alice", keys.public, lifetime=100.0)
        clock.advance(101.0)
        with pytest.raises(CredentialExpiredError):
            ca.validate(cert)

    def test_verified_certificate_still_expires(self, ca, keys, clock):
        """The signed-body digest is memoized; the validity window is not."""
        cert = ca.issue("alice", keys.public, lifetime=100.0)
        ca.validate(cert)
        cert.verify(ca.public_key, clock.now())
        clock.advance(101.0)
        with pytest.raises(CredentialExpiredError):
            ca.validate(cert)
        with pytest.raises(CredentialExpiredError):
            cert.verify(ca.public_key, clock.now())

    def test_tampered_subject_rejected(self, ca, keys):
        cert = ca.issue("alice", keys.public)
        forged = Certificate(
            subject="mallory",
            public_key=cert.public_key,
            issuer=cert.issuer,
            not_before=cert.not_before,
            not_after=cert.not_after,
            signature=cert.signature,
        )
        with pytest.raises(CredentialError, match="invalid signature"):
            ca.validate(forged)

    def test_swapped_key_rejected(self, ca, keys):
        mallory = KeyPair.generate(make_rng(4, "mallory"), bits=512)
        cert = ca.issue("alice", keys.public)
        forged = Certificate(
            subject=cert.subject,
            public_key=mallory.public,
            issuer=cert.issuer,
            not_before=cert.not_before,
            not_after=cert.not_after,
            signature=cert.signature,
        )
        with pytest.raises(CredentialError):
            ca.validate(forged)

    def test_wrong_issuer_rejected(self, clock, keys):
        ca1 = CertificateAuthority("ca-one", make_rng(5, "ca1"), clock)
        ca2 = CertificateAuthority("ca-two", make_rng(6, "ca2"), clock)
        cert = ca1.issue("alice", keys.public)
        with pytest.raises(CredentialError, match="issued by"):
            ca2.validate(cert)

    def test_certificate_serialization_roundtrip(self, ca, keys):
        cert = ca.issue("alice", keys.public)
        restored = decode(encode(cert))
        assert restored == cert
        ca.validate(restored)

    def test_forged_ca_cannot_mint_valid_certs(self, clock, keys):
        real = CertificateAuthority("trusted-ca", make_rng(7, "real"), clock)
        fake = CertificateAuthority("trusted-ca", make_rng(8, "fake"), clock)
        cert = fake.issue("mallory", keys.public)
        # Same issuer *name*, but the relying party holds the real CA key.
        with pytest.raises(CredentialError):
            real.validate(cert)
