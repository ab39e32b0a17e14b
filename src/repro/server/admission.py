"""Admission control: what a server checks before hosting an agent.

Section 5.2: "When a server receives an agent, it uses these credentials
to validate the authenticity of the agent, and based on the agent's
identity and delegated rights, it can grant access privileges for its
local resources."

Checks, in order (cheapest first, so junk is rejected early):

1. structural sanity, attribute whitelist and image size
   (resource-consumption defence);
2. the agent name is an agent URN and matches the credentials;
3. credential chain verification against the server's trust anchor
   (owner certificate → CA, signature, expiry, every delegation link);
4. for arrivals from an authenticated peer, with an
   :class:`~repro.agents.integrity.IntegrityAuthority` attached: the
   hash-chained appraisal record (and, at the agent's home site, the
   itinerary commitment) — tampered state, forged travel history and
   replayed images are refused here;
5. for untrusted code: the source passes the code verifier — once per
   distinct source and verifier policy on this server; later arrivals
   of the same bytes reuse the cached verdict and compiled code.

A refusal raises a :class:`SecurityException` subclass naming the check.

Admission is also where an agent's protection **ring** is assigned (the
trust-tier classification of ``repro.core.token``): a validated agent is
ring 1 by default, an explicitly trusted launcher's agents may be placed
in ring 0, and agents carrying their own code in ring 2.  Rings are an
opt-in :class:`RingPolicy` — a server without one runs everything at
ring 1, which is byte-for-byte the pre-ring behavior.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.transfer import DEFAULT_MAX_IMAGE_BYTES, AgentImage
from repro.core.token import RING_TRUSTED, RING_UNTRUSTED, RING_VERIFIED
from repro.credentials.cache import CredentialVerificationCache
from repro.credentials.rights import compiled_matcher
from repro.crypto.trust import TrustAnchor
from repro.errors import CodeVerificationError, CredentialError, TransferError
from repro.obs import runtime as _obs
from repro.sandbox.codecache import CodeVerificationCache
from repro.sandbox.verifier import VerifierPolicy
from repro.util.clock import Clock

__all__ = ["AdmissionPolicy", "RingPolicy"]


@dataclass(frozen=True, slots=True)
class RingPolicy:
    """How a server maps admitted agents onto protection rings.

    Classification runs *after* credential verification, so the owner
    and agent names it matches on are authenticated.  Rules, most
    trusted first:

    1. owner or agent URN matches a ``trusted_*`` glob → ring 0;
    2. owner matches an ``untrusted_owners`` glob, or the image carries
       its own code (``code_is_untrusted``) → ring 2;
    3. otherwise → :attr:`default` (ring 1).

    A trusted match wins over an untrusted one: the launcher's own
    agents stay ring 0 even when they carry code — the launcher already
    vouches for that code with its signature.
    """

    trusted_owners: tuple[str, ...] = ()  # globs over the owner URN
    trusted_agents: tuple[str, ...] = ()  # globs over the agent URN
    untrusted_owners: tuple[str, ...] = ()
    code_is_untrusted: bool = True  # carried code ⇒ ring 2
    default: int = RING_VERIFIED

    def classify(self, image: AgentImage) -> int:
        owner = str(image.credentials.owner)
        agent = str(image.credentials.agent)
        for pattern in self.trusted_owners:
            if compiled_matcher(pattern)(owner) is not None:
                return RING_TRUSTED
        for pattern in self.trusted_agents:
            if compiled_matcher(pattern)(agent) is not None:
                return RING_TRUSTED
        for pattern in self.untrusted_owners:
            if compiled_matcher(pattern)(owner) is not None:
                return RING_UNTRUSTED
        if self.code_is_untrusted and not image.is_trusted_code:
            return RING_UNTRUSTED
        return self.default


class AdmissionPolicy:
    """One server's arrival checks."""

    def __init__(
        self,
        trust_anchor: TrustAnchor,
        clock: Clock,
        *,
        verifier_policy: VerifierPolicy | None = None,
        max_image_bytes: int = DEFAULT_MAX_IMAGE_BYTES,
        accept_untrusted_code: bool = True,
        max_trace_length: int = 64,
        ring_policy: RingPolicy | None = None,
    ) -> None:
        self.trust_anchor = trust_anchor
        self.clock = clock
        self.verifier_policy = verifier_policy or VerifierPolicy()
        self.max_image_bytes = max_image_bytes
        self.accept_untrusted_code = accept_untrusted_code
        # Hop limit: stops runaway/looping agents from bouncing between
        # servers forever (a resource-consumption attack on the federation).
        self.max_trace_length = max_trace_length
        # An agent chain verified once on this server (signatures + chain
        # structure) is not RSA-verified again on its next arrival; only
        # the time-dependent checks replay.  See repro.credentials.cache.
        self.credential_cache = CredentialVerificationCache()
        # Shipped code verified and compiled once on this server; every
        # later arrival of the same source under the same policy reuses
        # it, and resident namespaces load from it.  See
        # repro.sandbox.codecache.
        self.code_cache = CodeVerificationCache()
        # Opt-in trust tiers; None = everyone is ring 1 (uniform mediation).
        self.ring_policy = ring_policy
        # The server's IntegrityAuthority, attached by AgentServer when
        # appraisal is on.  None = chain checks are skipped (pre-integrity
        # behavior; local launches always skip them via peer=None).
        self.integrity = None

    def classify_ring(self, image: AgentImage) -> int:
        """The protection ring for an already-validated image."""
        if self.ring_policy is None:
            return RING_VERIFIED
        return self.ring_policy.classify(image)

    def validate(
        self,
        image: AgentImage,
        wire_size: int | None = None,
        *,
        peer: str | None = None,
        state_bytes: bytes | None = None,
    ) -> None:
        """Raise if the image must not be hosted.

        ``peer`` is the authenticated sender for network arrivals (the
        transfer handler passes it); local launches leave it None, which
        skips the peer-bound appraisal-chain checks.  ``state_bytes`` is
        the span of the received bytes that carried the state; the
        appraisal digests it.

        Traced as ``admission.validate``; a refusal closes the span with
        status ``error`` naming the failed check's exception.
        """
        with _obs.span(
            "admission.validate",
            agent=str(image.name),
            hops=len(image.trace),
        ):
            size = wire_size if wire_size is not None else image.wire_size()
            if size > self.max_image_bytes:
                raise TransferError(
                    f"agent image of {size} bytes exceeds limit"
                    f" {self.max_image_bytes}"
                )
            if len(image.trace) >= self.max_trace_length:
                raise TransferError(
                    f"agent exceeded the {self.max_trace_length}-hop limit"
                )
            if image.name.kind != "agent":
                raise CredentialError(f"{image.name} is not an agent name")
            if image.credentials.agent != image.name:
                raise CredentialError(
                    f"image names {image.name} but credentials bind"
                    f" {image.credentials.agent}"
                )
            if not image.class_name.isidentifier():
                raise TransferError(f"invalid class name {image.class_name!r}")
            entry = image.entry_method
            if not entry.isidentifier() or entry.startswith("_"):
                raise TransferError(f"invalid entry method {entry!r}")
            # Attributes (and the transfer id keying the dedup table within
            # them) are attacker-controlled wire input: whitelist their shape
            # before anything downstream touches them.
            AgentImage.from_attributes(image.attributes)
            self.credential_cache.verify(
                image.credentials, self.trust_anchor, self.clock.now()
            )
            if self.integrity is not None and peer is not None:
                self.integrity.verify_arrival(image, peer, state_bytes)
                if image.home_site == self.integrity.name:
                    # The home server re-appraises the whole tour on return.
                    self.integrity.verify_return(image, peer)
            if not image.is_trusted_code:
                if not self.accept_untrusted_code:
                    raise CodeVerificationError(
                        "this server does not accept agents carrying code"
                    )
                self.code_cache.verify(image.source, self.verifier_policy)
