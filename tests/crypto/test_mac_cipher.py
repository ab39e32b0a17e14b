"""Tests for HMAC and the AEAD stream cipher."""

from __future__ import annotations

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import (
    NONCE_SIZE,
    keystream_xor,
    open_payload,
    seal_payload,
)
from repro.crypto.hashing import derive_key, sha256
from repro.crypto.mac import hmac_sha256, verify_hmac
from repro.errors import CryptoError, IntegrityError

KEY = sha256(b"session key material")
NONCE = b"n" * NONCE_SIZE


class TestHmac:
    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=128), st.binary(max_size=256))
    def test_property_matches_stdlib(self, key, message):
        expected = stdlib_hmac.new(key, message, "sha256").digest()
        assert hmac_sha256(key, message) == expected

    def test_long_key_hashed_first(self):
        key = b"k" * 200  # longer than SHA-256 block
        expected = stdlib_hmac.new(key, b"msg", "sha256").digest()
        assert hmac_sha256(key, b"msg") == expected

    def test_verify_accepts_and_rejects(self):
        tag = hmac_sha256(b"key", b"msg")
        assert verify_hmac(b"key", b"msg", tag)
        assert not verify_hmac(b"key", b"msg2", tag)
        assert not verify_hmac(b"key2", b"msg", tag)
        assert not verify_hmac(b"key", b"msg", tag[:-1] + b"\x00")


class TestKeystream:
    def test_xor_is_involution(self):
        data = b"some plaintext spanning multiple sha blocks" * 3
        ct = keystream_xor(KEY, NONCE, data)
        assert ct != data
        assert keystream_xor(KEY, NONCE, ct) == data

    def test_different_nonce_different_stream(self):
        data = b"x" * 64
        assert keystream_xor(KEY, NONCE, data) != keystream_xor(
            KEY, b"m" * NONCE_SIZE, data
        )

    def test_nonce_size_enforced(self):
        with pytest.raises(CryptoError):
            keystream_xor(KEY, b"short", b"data")

    def test_empty_data(self):
        assert keystream_xor(KEY, NONCE, b"") == b""

    def test_keystream_is_shake256_of_key_and_nonce(self):
        # Known answer: XOR over zeros exposes the keystream itself.
        stream = keystream_xor(bytes(32), bytes(NONCE_SIZE), bytes(40))
        assert stream.hex() == (
            "eda313c95591a023a5b37f361c07a5753a92d3d0427459f3"
            "4c7895d727d62816b3aa2224eb9d8231"
        )
        assert stream == hashlib.shake_256(bytes(32 + NONCE_SIZE)).digest(40)


class TestAead:
    def test_known_answer(self):
        """Fixed key, nonce, plaintext and associated data -> sealed bytes.

        Pins the keystream, the key separation and the MAC framing: a
        change to any of them changes this vector, and must be deliberate.
        """
        sealed = seal_payload(
            KEY, bytes(range(NONCE_SIZE)), b"agent state: 42 quotes", b"chan-1"
        )
        assert sealed.hex() == (
            "000102030405060708090a0b0c0d0e0f"
            "b8ce9594f4f56a928439a4838cb30b94a1b4ada502d4"
            "4adcad5506aee5fbeaba10130a749a8995e255fb04235072d9f6c65f85e87b17"
        )

    def test_seal_open_roundtrip(self):
        sealed = seal_payload(KEY, NONCE, b"secret agent state", b"header")
        assert open_payload(KEY, sealed, b"header") == b"secret agent state"

    def test_ciphertext_hides_plaintext(self):
        sealed = seal_payload(KEY, NONCE, b"secret agent state")
        assert b"secret" not in sealed

    def test_tampered_ciphertext_detected(self):
        sealed = bytearray(seal_payload(KEY, NONCE, b"payload"))
        sealed[NONCE_SIZE + 2] ^= 0x01
        with pytest.raises(IntegrityError):
            open_payload(KEY, bytes(sealed))

    def test_tampered_nonce_detected(self):
        sealed = bytearray(seal_payload(KEY, NONCE, b"payload"))
        sealed[0] ^= 0x01
        with pytest.raises(IntegrityError):
            open_payload(KEY, bytes(sealed))

    def test_tampered_tag_detected(self):
        sealed = bytearray(seal_payload(KEY, NONCE, b"payload"))
        sealed[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            open_payload(KEY, bytes(sealed))

    def test_wrong_associated_data_detected(self):
        sealed = seal_payload(KEY, NONCE, b"payload", b"to:serverA")
        with pytest.raises(IntegrityError):
            open_payload(KEY, sealed, b"to:serverB")

    def test_wrong_key_detected(self):
        sealed = seal_payload(KEY, NONCE, b"payload")
        with pytest.raises(IntegrityError):
            open_payload(sha256(b"other"), sealed)

    def test_truncated_payload_detected(self):
        with pytest.raises(IntegrityError, match="too short"):
            open_payload(KEY, b"tiny")

    def test_empty_plaintext(self):
        sealed = seal_payload(KEY, NONCE, b"")
        assert open_payload(KEY, sealed) == b""

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=300), st.binary(max_size=40))
    def test_property_roundtrip(self, plaintext, ad):
        sealed = seal_payload(KEY, NONCE, plaintext, ad)
        assert open_payload(KEY, sealed, ad) == plaintext

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0))
    def test_property_any_bitflip_detected(self, plaintext, position):
        sealed = bytearray(seal_payload(KEY, NONCE, plaintext))
        index = position % len(sealed)
        sealed[index] ^= 0x01
        with pytest.raises(IntegrityError):
            open_payload(KEY, bytes(sealed))


class TestDeriveKey:
    def test_labels_independent(self):
        assert derive_key(KEY, "enc") != derive_key(KEY, "mac")

    def test_boundary_ambiguity_resolved(self):
        # ("ab", key="c"+K) must differ from ("a", key="bc"+K) style splices
        assert derive_key(b"xkey", "a") != derive_key(b"key", "ax")

    def test_deterministic(self):
        assert derive_key(KEY, "enc") == derive_key(KEY, "enc")
