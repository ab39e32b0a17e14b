"""Trust stores: multiple certificate authorities per relying party.

The paper targets "an open, federated environment of servers and clients"
(section 5.2) — administrative domains with *different* authorities.  A
:class:`TrustStore` holds the **root certificates** (public material
only — a relying party never holds a CA's signing key) of every authority
a server accepts, and validates certificates by issuer lookup.

Anything in the system that takes a trust anchor — credential
verification, admission control, secure-channel handshakes — accepts
either a single :class:`~repro.crypto.cert.CertificateAuthority` or a
:class:`TrustStore`; both satisfy the same ``validate(certificate)``
protocol.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from repro.crypto.cert import Certificate, CertificateAuthority
from repro.errors import CredentialError
from repro.util.clock import Clock

__all__ = ["TrustAnchor", "TrustStore"]


@runtime_checkable
class TrustAnchor(Protocol):
    """Anything that can pass judgement on a certificate."""

    def validate(self, certificate: Certificate) -> None: ...


class TrustStore:
    """A relying party's set of accepted authorities."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._anchors: dict[str, Certificate] = {}
        self._version = 0

    @classmethod
    def of(cls, clock: Clock, *authorities: CertificateAuthority) -> "TrustStore":
        """Convenience: trust these authorities' root certificates."""
        store = cls(clock)
        for authority in authorities:
            store.add_anchor(authority.root_certificate)
        return store

    def add_anchor(self, root_certificate: Certificate) -> None:
        """Trust an authority, given its (self-signed) root certificate.

        The root must be self-consistent: issued by its own subject and
        self-signature valid at the current time.
        """
        if root_certificate.issuer != root_certificate.subject:
            raise CredentialError(
                f"{root_certificate.subject!r} is not a self-signed root"
            )
        root_certificate.verify(root_certificate.public_key, self._clock.now())
        if root_certificate.subject in self._anchors:
            raise CredentialError(
                f"authority {root_certificate.subject!r} already trusted"
            )
        self._anchors[root_certificate.subject] = root_certificate
        self._version += 1

    def remove_anchor(self, authority_name: str) -> None:
        """Stop trusting an authority (future validations only)."""
        self._anchors.pop(authority_name, None)
        self._version += 1

    @property
    def trust_version(self) -> int:
        """Monotonic counter bumped by every anchor mutation.

        Caches of validation verdicts key on it, so adding or removing an
        authority orphans every verdict reached under the old trust set.
        """
        return self._version

    def anchor_validity_window(self) -> tuple[float, float]:
        """Conservative time span over which the anchor set stays valid.

        Used by verification caches: outside this window a cached verdict
        cannot be trusted without re-validating (a root may have expired
        or not yet be valid).
        """
        if not self._anchors:
            return (float("inf"), float("-inf"))
        return (
            max(a.not_before for a in self._anchors.values()),
            min(a.not_after for a in self._anchors.values()),
        )

    def anchors(self) -> list[str]:
        return sorted(self._anchors)

    def __len__(self) -> int:
        return len(self._anchors)

    # -- the TrustAnchor protocol ----------------------------------------------

    def validate(self, certificate: Certificate) -> None:
        """Check a certificate against the trusted authorities."""
        anchor = self._anchors.get(certificate.issuer)
        if anchor is None:
            raise CredentialError(
                f"certificate for {certificate.subject!r} issued by"
                f" untrusted authority {certificate.issuer!r}"
            )
        now = self._clock.now()
        # The anchor itself must still be in its validity window; its
        # self-signature was checked once, by add_anchor.
        anchor.check_window(now)
        certificate.verify(anchor.public_key, now)
