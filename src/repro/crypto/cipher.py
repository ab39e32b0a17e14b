"""Symmetric AEAD: SHAKE-256 keystream cipher with encrypt-then-MAC.

Secure channels (section 2: privacy + integrity of communication) seal
every payload with a :class:`SealContext` and reject anything it cannot
authenticate.  Key separation: independent encryption and MAC keys are
derived from the session key, and the MAC covers
``nonce || associated_data || ciphertext`` with length framing, so
splicing attacks across fields are detected.

:class:`SealContext` derives the enc/MAC keys and runs the HMAC key
schedule once per session, not once per message.  :func:`seal_payload`
and :func:`open_payload` are its one-shot forms for a single message.
"""

from __future__ import annotations

import hashlib

from repro.crypto.hashing import derive_key
from repro.crypto.mac import HmacKey
from repro.errors import CryptoError, IntegrityError

__all__ = [
    "keystream_xor",
    "seal_payload",
    "open_payload",
    "SealContext",
    "NONCE_SIZE",
    "TAG_SIZE",
]

NONCE_SIZE = 16
TAG_SIZE = 32


def keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the SHAKE-256 keystream for (key, nonce).

    The keystream is ``SHAKE-256(key || nonce)`` squeezed to
    ``len(data)`` bytes in one call.  Symmetric: applying it twice with
    the same key/nonce returns the original plaintext.
    """
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    if not data:
        return b""
    stream = hashlib.shake_256(key + nonce).digest(len(data))
    # One big-int XOR instead of a per-byte Python loop.
    xored = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return xored.to_bytes(len(data), "big")


def _frame(nonce: bytes, associated_data: bytes, ciphertext: bytes) -> bytes:
    """Unambiguous MAC input: length-prefixed fields."""
    return b"".join(
        (
            len(nonce).to_bytes(4, "big"),
            nonce,
            len(associated_data).to_bytes(4, "big"),
            associated_data,
            len(ciphertext).to_bytes(4, "big"),
            ciphertext,
        )
    )


def seal_payload(
    session_key: bytes,
    nonce: bytes,
    plaintext: bytes,
    associated_data: bytes = b"",
) -> bytes:
    """One-shot :meth:`SealContext.seal`: ``nonce || ciphertext || tag``."""
    return SealContext(session_key).seal(nonce, plaintext, associated_data)


def open_payload(
    session_key: bytes,
    sealed: bytes,
    associated_data: bytes = b"",
) -> bytes:
    """One-shot :meth:`SealContext.open`.

    Raises :class:`~repro.errors.IntegrityError` if the tag does not
    verify — the "data is either delivered unmodified, or an exception is
    raised" guarantee of section 2.
    """
    return SealContext(session_key).open(sealed, associated_data)


class SealContext:
    """Per-session AEAD context: keys derived once, MAC pads cached.

    A secure channel seals every message under the same session key, so
    the enc/MAC subkeys and the HMAC key blocks are derived once, here.
    """

    __slots__ = ("_enc_key", "_mac")

    def __init__(self, session_key: bytes) -> None:
        self._enc_key = derive_key(session_key, "enc")
        self._mac = HmacKey(derive_key(session_key, "mac"))

    def seal(
        self, nonce: bytes, plaintext: bytes, associated_data: bytes = b""
    ) -> bytes:
        """Encrypt-then-MAC.  Returns ``nonce || ciphertext || tag``."""
        ciphertext = keystream_xor(self._enc_key, nonce, plaintext)
        tag = self._mac.digest(_frame(nonce, associated_data, ciphertext))
        return nonce + ciphertext + tag

    def open(self, sealed: bytes, associated_data: bytes = b"") -> bytes:
        """Authenticate and decrypt; :class:`IntegrityError` on tamper."""
        if len(sealed) < NONCE_SIZE + TAG_SIZE:
            raise IntegrityError("sealed payload too short")
        nonce = sealed[:NONCE_SIZE]
        ciphertext = sealed[NONCE_SIZE:-TAG_SIZE]
        tag = sealed[-TAG_SIZE:]
        if not self._mac.verify(
            _frame(nonce, associated_data, ciphertext), tag
        ):
            raise IntegrityError(
                "payload failed authentication (tampered or wrong key)"
            )
        return keystream_xor(self._enc_key, nonce, ciphertext)
