"""Agent credentials: the tamperproof owner↔agent↔creator binding.

Section 5.2: "Each agent carries a set of credentials, which associate the
agent's identity with those of its owner and creator, in a tamperproof
manner.  Apart from an identity (name), the credentials include the
owner's public key certificate.  The creator may delegate to the agent
only a limited set of privileges ... Such access restrictions are also
encoded in the credentials. ... the credentials could have an expiration
time so that stolen credentials cannot be misused indefinitely."

The owner signs the credential body; any relying server validates the
owner's certificate against a CA it trusts, then the signature, then the
validity window.  Verification requires no online authority — matching
the paper's constraint that "an on-line authentication service may not
always be available".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.crypto.cert import Certificate
from repro.crypto.trust import TrustAnchor
from repro.crypto.keys import KeyPair
from repro.errors import CredentialError, CredentialExpiredError, SignatureError
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.util.serialization import canonical_digest, register_serializable

__all__ = ["Credentials"]


@dataclass(frozen=True, slots=True)
class Credentials:
    """A signed statement: *agent* acts for *owner*, within *rights*."""

    agent: URN
    owner: URN
    creator: URN
    owner_certificate: Certificate
    rights: Rights
    issued_at: float
    expires_at: float
    signature: bytes

    # -- construction --------------------------------------------------------

    @staticmethod
    def signed_body(
        agent: URN,
        owner: URN,
        creator: URN,
        owner_certificate: Certificate,
        rights: Rights,
        issued_at: float,
        expires_at: float,
    ) -> dict:
        return {
            "agent": agent,
            "owner": owner,
            "creator": creator,
            "owner_certificate": owner_certificate,
            "rights": rights,
            "issued_at": issued_at,
            "expires_at": expires_at,
        }

    @classmethod
    def issue(
        cls,
        *,
        agent: URN,
        owner: URN,
        creator: URN,
        owner_keys: KeyPair,
        owner_certificate: Certificate,
        rights: Rights,
        now: float,
        lifetime: float = 3600.0,
    ) -> "Credentials":
        """Owner mints credentials for a new agent."""
        if agent.kind != "agent":
            raise CredentialError(f"credentials subject must be an agent URN, got {agent}")
        if owner_certificate.subject != str(owner):
            raise CredentialError(
                f"owner certificate names {owner_certificate.subject!r}, not {owner}"
            )
        if lifetime <= 0:
            raise CredentialError("credential lifetime must be positive")
        body = cls.signed_body(
            agent, owner, creator, owner_certificate, rights, now, now + lifetime
        )
        signature = owner_keys.private.sign(canonical_digest(body))
        return cls(
            agent=agent,
            owner=owner,
            creator=creator,
            owner_certificate=owner_certificate,
            rights=rights,
            issued_at=now,
            expires_at=now + lifetime,
            signature=signature,
        )

    # -- validation ------------------------------------------------------------

    def body(self) -> dict:
        return self.signed_body(
            self.agent,
            self.owner,
            self.creator,
            self.owner_certificate,
            self.rights,
            self.issued_at,
            self.expires_at,
        )

    def digest(self) -> bytes:
        """Canonical digest of the signed body (anchors delegation links)."""
        return _body_digest(self)

    def verify(self, trust_anchor: TrustAnchor, now: float) -> None:
        """Full validation; raises a :class:`CredentialError` subclass on failure."""
        if not (self.issued_at <= now <= self.expires_at):
            raise CredentialExpiredError(
                f"credentials for {self.agent} expired "
                f"(window [{self.issued_at}, {self.expires_at}], now {now})"
            )
        if self.owner_certificate.subject != str(self.owner):
            raise CredentialError("owner certificate subject mismatch")
        trust_anchor.validate(self.owner_certificate)
        try:
            self.owner_certificate.public_key.verify(self.digest(), self.signature)
        except SignatureError as exc:
            raise CredentialError(
                f"credentials for {self.agent} have an invalid owner signature"
            ) from exc

    # -- serialization -----------------------------------------------------------

    def to_state(self) -> dict:
        state = self.body()
        state["signature"] = self.signature
        return state

    @classmethod
    def from_state(cls, state: dict) -> "Credentials":
        return cls(
            agent=state["agent"],
            owner=state["owner"],
            creator=state["creator"],
            owner_certificate=state["owner_certificate"],
            rights=state["rights"],
            issued_at=float(state["issued_at"]),
            expires_at=float(state["expires_at"]),
            signature=state["signature"],
        )


register_serializable(Credentials, intern=True)


@functools.lru_cache(maxsize=256)
def _body_digest(credentials: Credentials) -> bytes:
    """:meth:`Credentials.digest`, memoized by value (credentials are
    frozen); the validity window stays a per-call check in ``verify``."""
    return canonical_digest(credentials.body())
