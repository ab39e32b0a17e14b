"""Cascaded delegation: servers re-delegating an agent with fewer rights.

Section 5.2: "A server may also need to forward an agent to another
server (like a subcontract) granting it some additional privileges or
restricting some of its existing ones.  In the past, several protocols
have been proposed ... for delegating rights to proxies [Sollins'
cascaded authentication]."

Each :class:`DelegationLink` is signed by the delegator over the digest of
*everything before it* in the chain, so links cannot be reordered,
dropped, or spliced between chains.  Effective rights are the conjunction
of the base credential rights and every link's restriction
(:class:`~repro.credentials.rights.CompositeRights`), which guarantees
attenuation: a delegate can never end up with more authority than any
principal earlier in the chain granted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.crypto.cert import Certificate
from repro.crypto.trust import TrustAnchor
from repro.crypto.keys import KeyPair
from repro.credentials.credentials import Credentials
from repro.credentials.rights import CompositeRights, Rights
from repro.errors import CredentialError, CredentialExpiredError, SignatureError
from repro.naming.urn import URN
from repro.util.serialization import canonical_digest, register_serializable

__all__ = ["DelegationLink", "DelegatedCredentials"]


@dataclass(frozen=True, slots=True)
class DelegationLink:
    """One step of a cascade: *delegator* attenuates the chain so far."""

    delegator: URN
    delegator_certificate: Certificate
    restriction: Rights
    expires_at: float
    prev_digest: bytes  # digest of the base credentials + earlier links
    signature: bytes

    @staticmethod
    def signed_body(
        delegator: URN,
        delegator_certificate: Certificate,
        restriction: Rights,
        expires_at: float,
        prev_digest: bytes,
    ) -> dict:
        return {
            "delegator": delegator,
            "delegator_certificate": delegator_certificate,
            "restriction": restriction,
            "expires_at": expires_at,
            "prev_digest": prev_digest,
        }

    def body(self) -> dict:
        return self.signed_body(
            self.delegator,
            self.delegator_certificate,
            self.restriction,
            self.expires_at,
            self.prev_digest,
        )

    def digest(self) -> bytes:
        return _link_digest(self)

    def to_state(self) -> dict:
        state = self.body()
        state["signature"] = self.signature
        return state

    @classmethod
    def from_state(cls, state: dict) -> "DelegationLink":
        return cls(
            delegator=state["delegator"],
            delegator_certificate=state["delegator_certificate"],
            restriction=state["restriction"],
            expires_at=float(state["expires_at"]),
            prev_digest=state["prev_digest"],
            signature=state["signature"],
        )


register_serializable(DelegationLink, intern=True)


@functools.lru_cache(maxsize=256)
def _link_digest(link: DelegationLink) -> bytes:
    """:meth:`DelegationLink.digest`, memoized by value (links are frozen)."""
    return canonical_digest(link.body())


@dataclass(frozen=True, slots=True)
class DelegatedCredentials:
    """Base credentials plus zero or more cascaded delegation links."""

    base: Credentials
    links: tuple[DelegationLink, ...] = ()

    @classmethod
    def wrap(cls, base: Credentials) -> "DelegatedCredentials":
        return cls(base=base, links=())

    @property
    def agent(self) -> URN:
        return self.base.agent

    @property
    def owner(self) -> URN:
        return self.base.owner

    # -- chain growth ---------------------------------------------------------

    def chain_digest(self) -> bytes:
        """Digest covering the base and every link, in order."""
        return canonical_digest(
            [self.base.digest()] + [link.digest() for link in self.links]
        )

    def fingerprint(self) -> bytes:
        """The chain digest, memoized — the chain's immutable cache identity."""
        from repro.credentials.cache import credential_fingerprint

        return credential_fingerprint(self)

    def extend(
        self,
        *,
        delegator: URN,
        delegator_keys: KeyPair,
        delegator_certificate: Certificate,
        restriction: Rights,
        now: float,
        lifetime: float = 3600.0,
    ) -> "DelegatedCredentials":
        """A delegator (typically a forwarding server) adds a restriction."""
        if delegator_certificate.subject != str(delegator):
            raise CredentialError(
                f"delegator certificate names {delegator_certificate.subject!r},"
                f" not {delegator}"
            )
        if lifetime <= 0:
            raise CredentialError("delegation lifetime must be positive")
        prev = self.chain_digest()
        body = DelegationLink.signed_body(
            delegator, delegator_certificate, restriction, now + lifetime, prev
        )
        link = DelegationLink(
            delegator=delegator,
            delegator_certificate=delegator_certificate,
            restriction=restriction,
            expires_at=now + lifetime,
            prev_digest=prev,
            signature=delegator_keys.private.sign(canonical_digest(body)),
        )
        return DelegatedCredentials(base=self.base, links=self.links + (link,))

    # -- validation --------------------------------------------------------------

    def verify(self, trust_anchor: TrustAnchor, now: float) -> None:
        """Validate the base and every link against the trust anchor."""
        self.base.verify(trust_anchor, now)
        running = DelegatedCredentials(base=self.base, links=())
        for index, link in enumerate(self.links):
            if now > link.expires_at:
                raise CredentialExpiredError(
                    f"delegation link {index} by {link.delegator} expired"
                )
            expected_prev = running.chain_digest()
            if link.prev_digest != expected_prev:
                raise CredentialError(
                    f"delegation link {index} does not chain to its predecessors"
                )
            if link.delegator_certificate.subject != str(link.delegator):
                raise CredentialError(
                    f"delegation link {index} certificate subject mismatch"
                )
            trust_anchor.validate(link.delegator_certificate)
            try:
                link.delegator_certificate.public_key.verify(
                    link.digest(), link.signature
                )
            except SignatureError as exc:
                raise CredentialError(
                    f"delegation link {index} by {link.delegator} has an"
                    f" invalid signature"
                ) from exc
            running = DelegatedCredentials(
                base=self.base, links=running.links + (link,)
            )

    # -- authority ---------------------------------------------------------------

    def effective_rights(self) -> CompositeRights:
        """Conjunction of the base grant and every link's restriction."""
        return CompositeRights(
            links=(self.base.rights,) + tuple(l.restriction for l in self.links)
        )

    # -- serialization --------------------------------------------------------------

    def to_state(self) -> dict:
        return {"base": self.base, "links": list(self.links)}

    @classmethod
    def from_state(cls, state: dict) -> "DelegatedCredentials":
        return cls(base=state["base"], links=tuple(state["links"]))


register_serializable(DelegatedCredentials, intern=True)
