"""Key objects: public keys travel in credentials, private keys never do.

:class:`PublicKey` is registered with the canonical serializer (it is
embedded in certificates and credentials).  :class:`PrivateKey` is
deliberately *not* serializable: an agent's state must never be able to
carry a private key onto the wire by accident — the paper's agents are
explicitly untrusted couriers of their own state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto import rsa
from repro.crypto.hashing import derive_key, sha256_hex
from repro.errors import CryptoError
from repro.util.serialization import register_serializable

__all__ = ["PublicKey", "PrivateKey", "KeyPair", "DEFAULT_KEY_BITS"]

DEFAULT_KEY_BITS = 512


@dataclass(frozen=True, slots=True)
class PublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    def verify(self, digest: bytes, signature: bytes) -> None:
        """Raises :class:`~repro.errors.SignatureError` on mismatch."""
        rsa.rsa_verify_digest(self.n, self.e, digest, signature)

    def encapsulate(self, rng: random.Random) -> tuple[bytes, bytes]:
        """RSA-KEM: ``(ciphertext, shared_key)`` for this key's holder."""
        return rsa.rsa_encapsulate(self.n, self.e, rng)

    def fingerprint(self) -> str:
        """Short stable identifier for logs and registries."""
        k = (self.n.bit_length() + 7) // 8
        return sha256_hex(self.n.to_bytes(k, "big"), self.e.to_bytes(4, "big"))[:16]

    def to_state(self) -> dict:
        return {"n": self.n, "e": self.e}

    @classmethod
    def from_state(cls, state: dict) -> "PublicKey":
        n, e = state["n"], state["e"]
        if not (isinstance(n, int) and isinstance(e, int)) or n < 3 or e < 3:
            raise CryptoError("malformed public key state")
        return cls(n=n, e=e)


register_serializable(PublicKey, intern=True)


class PrivateKey:
    """An RSA private key.  Intentionally not serializable."""

    __slots__ = ("_params",)

    def __init__(self, params: rsa.RsaParams) -> None:
        self._params = params

    @property
    def bits(self) -> int:
        return self._params.bits

    def public_key(self) -> PublicKey:
        return PublicKey(n=self._params.n, e=self._params.e)

    def sign(self, digest: bytes) -> bytes:
        return rsa.rsa_sign_digest(self._params, digest)

    def decapsulate(self, ciphertext: bytes) -> bytes:
        return rsa.rsa_decapsulate(self._params, ciphertext)

    def subkey(self, label: str) -> bytes:
        """A 32-byte secret derived from this key, separated by ``label``.

        Lets a key pair's holder key its symmetric MACs without drawing
        fresh randomness; distinct labels give independent keys.
        """
        d = self._params.d
        return derive_key(d.to_bytes((d.bit_length() + 7) // 8, "big"), label)

    def __repr__(self) -> str:  # never leak parameters
        return f"PrivateKey(bits={self.bits}, fpr={self.public_key().fingerprint()})"


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A public/private key pair belonging to one principal."""

    public: PublicKey
    private: PrivateKey

    @classmethod
    def generate(
        cls, rng: random.Random, bits: int = DEFAULT_KEY_BITS
    ) -> "KeyPair":
        params = rsa.rsa_keygen(bits, rng)
        private = PrivateKey(params)
        return cls(public=private.public_key(), private=private)
