"""Memoized credential identity and a bounded verification cache.

The paper's amortization argument (section 5.4) front-loads authorization
into binding — but full chain verification is RSA work per link, and in a
busy server the *same* chain arrives again and again: once at admission,
then once per resource binding, then again on the next visit.  Signature
validity is a pure function of the signed bytes, so a chain verified once
need never have its signatures re-checked; only the *time-dependent*
conditions (credential windows, link expirations, certificate windows)
must be re-tested, and those are float comparisons.

Two facilities live here:

* :func:`credential_fingerprint` — the canonical-bytes digest of a
  delegation chain, memoized per credential object.  It is the immutable
  identity that keys every authorization cache in the system (grant
  caches, verification cache).
* :class:`CredentialVerificationCache` — one host's bounded LRU of
  verification verdicts: delegation chains and certificates (each mapped
  to the window over which its verdict holds) and signatures.  A hit
  replays only the cheap freshness checks; a miss (or an out-of-window
  hit) falls through to the full check, so every failure mode raises
  exactly the error the uncached path would.  Each server owns one
  (:attr:`~repro.server.admission.AdmissionPolicy.credential_cache`) and
  its admission, appraisal and handshake checks all consult it; no
  verdict reached on one host is reused on another.

Trust anchors that can *lose* trust (e.g.
:class:`~repro.crypto.trust.TrustStore.remove_anchor`) expose a monotonic
``trust_version``; it is part of every anchored key, so revoking an
authority instantly orphans every verdict reached under the old trust
set.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable

from repro.credentials.delegation import DelegatedCredentials
from repro.crypto.cert import Certificate
from repro.crypto.keys import PublicKey
from repro.crypto.trust import TrustAnchor
from repro.errors import SignatureError

__all__ = ["credential_fingerprint", "CredentialVerificationCache"]


# One entry per touring agent (8 per wave of 8 tours); a miss re-digests.
@lru_cache(maxsize=256)
def credential_fingerprint(credentials: DelegatedCredentials) -> bytes:
    """Canonical digest of the whole chain, memoized per credential.

    Credentials are frozen value objects, so the digest is computed once
    per distinct chain and shared by every cache keyed on it.
    """
    return credentials.chain_digest()


class CredentialVerificationCache:
    """One host's bounded LRU of verification verdicts.

    Three kinds of verdict share the LRU:

    * a delegation chain, keyed by its fingerprint, the trust anchor and
      the anchor's ``trust_version`` → the window over which the chain
      stays verified (:meth:`verify`);
    * a certificate, keyed by its signed-body digest, its signature, the
      anchor and its version → the certificate's window (:meth:`validate`);
    * a signature, keyed by public key, digest and signature → whether it
      verifies (:meth:`signature_ok`); signature math is time-independent,
      so a forged signature stays forged.  A host's own fresh signatures
      go in as true (:meth:`remember_signature`).

    Keys hold digests, signatures and public keys, never credentials,
    links or images, so the cache keeps no finished agent's objects
    alive.  ``hits``/``misses`` count chain lookups through :meth:`verify`.
    """

    __slots__ = ("_entries", "maxsize", "hits", "misses")

    # A wave of 8 tours adds 31-40 verdicts per host; a miss re-runs RSA.
    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        # key -> (anchor, valid_from, valid_until) for anchored verdicts,
        # bool for signatures; the anchor is held strongly so a recycled
        # id() can never alias a dead anchor.
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0

    def verify(
        self,
        credentials: DelegatedCredentials,
        trust_anchor: TrustAnchor,
        now: float,
    ) -> None:
        """Like ``credentials.verify(trust_anchor, now)``, but cached.

        Raises exactly what the uncached verification would raise: any
        condition the cached window cannot vouch for falls through to the
        full check, whose certificate checks go through :meth:`validate`.
        """
        version = getattr(trust_anchor, "trust_version", None)
        key = (credential_fingerprint(credentials), id(trust_anchor), version)
        if self._within(key, trust_anchor, now):
            self.hits += 1
            return
        self.misses += 1
        credentials.verify(self.anchored(trust_anchor, lambda: now), now)
        window = _validity_window(credentials, trust_anchor)
        self._remember(key, (trust_anchor, *window))

    def validate(
        self, certificate: Certificate, trust_anchor: TrustAnchor, now: float
    ) -> None:
        """``trust_anchor.validate(certificate)`` with the RSA work cached.

        A hit re-checks only that ``now`` lies inside the certificate's
        and the anchor set's validity windows; anything else runs the
        anchor's own check and raises what it raises.
        """
        version = getattr(trust_anchor, "trust_version", None)
        key = (
            certificate.digest(), certificate.signature, id(trust_anchor), version
        )
        if self._within(key, trust_anchor, now):
            return
        trust_anchor.validate(certificate)
        low, high = _anchor_window(trust_anchor)
        self._remember(key, (
            trust_anchor,
            max(low, certificate.not_before),
            min(high, certificate.not_after),
        ))

    def anchored(
        self, trust_anchor: TrustAnchor, now: Callable[[], float]
    ) -> TrustAnchor:
        """``trust_anchor`` with its certificate verdicts kept here.

        For code that takes a plain trust anchor (the secure-channel
        handshake): its ``validate(certificate)`` is :meth:`validate` at
        time ``now()``.
        """
        return SimpleNamespace(
            validate=lambda certificate: self.validate(
                certificate, trust_anchor, now()
            )
        )

    def signature_ok(
        self, public_key: PublicKey, digest: bytes, signature: bytes
    ) -> bool:
        """Whether ``signature`` over ``digest`` verifies under the key."""
        key = (public_key, digest, signature)
        verdict = self._entries.get(key)
        if verdict is not None:
            self._entries.move_to_end(key)
            return verdict
        try:
            public_key.verify(digest, signature)
            verdict = True
        except SignatureError:
            verdict = False
        self._remember(key, verdict)
        return verdict

    def remember_signature(
        self, public_key: PublicKey, digest: bytes, signature: bytes
    ) -> None:
        """Record ``signature`` as verifying: one this host just made itself."""
        self._remember((public_key, digest, signature), True)

    def _within(self, key: tuple, anchor: TrustAnchor, now: float) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            return False
        held, valid_from, valid_until = entry
        if held is not anchor or not valid_from <= now <= valid_until:
            return False
        self._entries.move_to_end(key)
        return True

    def _remember(self, key: tuple, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}


def _anchor_window(trust_anchor: TrustAnchor) -> tuple[float, float]:
    """The anchor set's own validity window, unbounded if it has none."""
    window = getattr(trust_anchor, "anchor_validity_window", None)
    return window() if callable(window) else (float("-inf"), float("inf"))


def _validity_window(
    credentials: DelegatedCredentials, trust_anchor: TrustAnchor
) -> tuple[float, float]:
    """The time span over which a verified chain stays verified.

    Intersects every time-dependent condition full verification checks:
    the base credential window, each link's expiry, every certificate's
    validity window, and the anchor set's own window.  Signatures and
    chain digests are time-independent.
    """
    base = credentials.base
    valid_from, valid_until = _anchor_window(trust_anchor)
    owner = base.owner_certificate
    valid_from = max(valid_from, base.issued_at, owner.not_before)
    valid_until = min(valid_until, base.expires_at, owner.not_after)
    for link in credentials.links:
        cert = link.delegator_certificate
        valid_from = max(valid_from, cert.not_before)
        valid_until = min(valid_until, link.expires_at, cert.not_after)
    return valid_from, valid_until
