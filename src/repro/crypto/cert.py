"""Public-key certificates and a minimal certificate authority.

Section 5.2: an agent's credentials "include the owner's public key
certificate".  A :class:`Certificate` binds a principal name to a public
key, signed by an issuer; servers hold the issuing
:class:`CertificateAuthority`'s root certificate as their trust anchor and
validate chains with expiry checking.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from repro.crypto.keys import DEFAULT_KEY_BITS, KeyPair, PublicKey
from repro.errors import CredentialError, CredentialExpiredError, SignatureError
from repro.util.clock import Clock
from repro.util.serialization import canonical_digest, register_serializable

__all__ = ["Certificate", "CertificateAuthority"]


@dataclass(frozen=True, slots=True)
class Certificate:
    """A signed binding of ``subject`` (a principal name) to ``public_key``."""

    subject: str
    public_key: PublicKey
    issuer: str
    not_before: float
    not_after: float
    signature: bytes

    def signed_body(self) -> dict:
        """The fields the issuer's signature covers."""
        return {
            "subject": self.subject,
            "public_key": self.public_key,
            "issuer": self.issuer,
            "not_before": self.not_before,
            "not_after": self.not_after,
        }

    def digest(self) -> bytes:
        """The digest of the signed body (memoized by value)."""
        return _signed_digest(self)

    def check_window(self, now: float) -> None:
        """Raise :class:`CredentialExpiredError` unless ``now`` is in the window."""
        if not (self.not_before <= now <= self.not_after):
            raise CredentialExpiredError(
                f"certificate for {self.subject!r} not valid at t={now} "
                f"(window [{self.not_before}, {self.not_after}])"
            )

    def verify(self, issuer_key: PublicKey, now: float) -> None:
        """Validate signature and validity window; raises on failure."""
        self.check_window(now)
        try:
            issuer_key.verify(self.digest(), self.signature)
        except SignatureError as exc:
            raise CredentialError(
                f"certificate for {self.subject!r} has an invalid signature"
            ) from exc

    def to_state(self) -> dict:
        state = self.signed_body()
        state["signature"] = self.signature
        return state

    @classmethod
    def from_state(cls, state: dict) -> "Certificate":
        return cls(
            subject=state["subject"],
            public_key=state["public_key"],
            issuer=state["issuer"],
            not_before=float(state["not_before"]),
            not_after=float(state["not_after"]),
            signature=state["signature"],
        )


register_serializable(Certificate, intern=True)


@functools.lru_cache(maxsize=256)
def _signed_digest(certificate: Certificate) -> bytes:
    """Digest of a certificate's signed body, memoized by value.

    Certificates are frozen and recur in every chain a server checks;
    the validity window stays a per-call check in :meth:`verify`.
    """
    return canonical_digest(certificate.signed_body())


class CertificateAuthority:
    """Issues certificates; its own (self-signed) cert is the trust anchor.

    One CA models the paper's "server-oriented" open federation well
    enough: every agent server is configured with the CA certificates it
    trusts, and credential validation starts from those anchors.
    """

    def __init__(
        self,
        name: str,
        rng: random.Random,
        clock: Clock,
        *,
        bits: int = DEFAULT_KEY_BITS,
        lifetime: float = 10**9,
    ) -> None:
        self.name = name
        self._clock = clock
        self._keys = KeyPair.generate(rng, bits)
        self.root_certificate = self._issue_to(
            name, self._keys.public, lifetime=lifetime
        )

    @property
    def public_key(self) -> PublicKey:
        return self._keys.public

    @property
    def trust_version(self) -> int:
        """A CA's trust judgement never changes (its key is fixed)."""
        return 0

    def _issue_to(
        self, subject: str, key: PublicKey, *, lifetime: float
    ) -> Certificate:
        now = self._clock.now()
        body = {
            "subject": subject,
            "public_key": key,
            "issuer": self.name,
            "not_before": now,
            "not_after": now + lifetime,
        }
        signature = self._keys.private.sign(canonical_digest(body))
        return Certificate(
            subject=subject,
            public_key=key,
            issuer=self.name,
            not_before=now,
            not_after=now + lifetime,
            signature=signature,
        )

    def issue(
        self, subject: str, key: PublicKey, *, lifetime: float = 10**6
    ) -> Certificate:
        """Issue a certificate binding ``subject`` to ``key``."""
        if subject == self.name:
            raise CredentialError("use the CA's own root certificate")
        return self._issue_to(subject, key, lifetime=lifetime)

    def validate(self, certificate: Certificate) -> None:
        """Check a certificate against this CA at the current time."""
        if certificate.issuer != self.name:
            raise CredentialError(
                f"certificate issued by {certificate.issuer!r}, not {self.name!r}"
            )
        certificate.verify(self.public_key, self._clock.now())
