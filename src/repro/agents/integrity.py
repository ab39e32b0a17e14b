"""Tamper-evident agent integrity: hash-chained per-hop state appraisal.

The paper's threat model protects *hosts* from agents; this module adds
the converse guarantee from the related work (Zwierko & Kotulski's
integrity-protection concept): agents protected from **malicious hosts**.
The secure channel already rules out wire tampering, so the adversary
here is a hosting server itself — one that rewrites the agent's
accumulated state before forwarding it, edits the travel history, or
replays yesterday's image.

The mechanism is an appraisal chain carried in the agent image's
attributes: at every ``depart`` the sending host seals an
:class:`AppraisalLink` covering

* a digest of the captured state (and code identity) it is forwarding,
* the hop index and the origin/destination server URNs,
* the kernel timestamp,
* the **previous link's tag** — making the record a hash chain anchored
  in a genesis tag derived from the agent's identity and home site,

and signs the link's tag with its host key, vouched for by its
certificate (which travels in the link, so any server in the federation
can verify against its trust anchor).  A host can refuse to append a
link, but it cannot rewrite what earlier hosts sealed, insert or delete
hops, or transplant a chain onto a different agent — every such edit
breaks a tag, a signature, or the trace correspondence, and the next
honest server's :class:`IntegrityAuthority` rejects the arrival with a
typed :class:`~repro.errors.AgentIntegrityError` and quarantines the
offending upstream host (by name *and* by sealing-key fingerprint, so
re-registering under a fresh name does not lift the ban).

Cryptographic itineraries (:class:`~repro.agents.itinerary
.ItineraryCommitment`) complement the chain: the home server seals the
planned tour under a private MAC key at launch and re-appraises the
whole journey when the agent returns — a completed tour is verifiable
end-to-end against the agent's home trust anchor.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import random
from dataclasses import dataclass
from repro.agents.itinerary import Itinerary, ItineraryCommitment
from repro.agents.transfer import AgentImage
from repro.credentials.cache import CredentialVerificationCache
from repro.crypto.cert import Certificate
from repro.crypto.keys import KeyPair
from repro.crypto.mac import HmacKey
from repro.crypto.trust import TrustAnchor
from repro.errors import (
    AgentIntegrityError,
    CredentialError,
    SerializationError,
)
from repro.sim.monitor import Counter
from repro.util.clock import Clock
from repro.util.serialization import (
    Verbatim,
    canonical_digest,
    register_serializable,
)

__all__ = [
    "APPRAISAL_ATTRIBUTE",
    "COMMITMENT_ATTRIBUTE",
    "AppraisalLink",
    "HostQuarantine",
    "IntegrityAuthority",
    "genesis_tag",
    "state_digest",
]

# Attribute keys under which the integrity records travel.
APPRAISAL_ATTRIBUTE = "appraisal"
COMMITMENT_ATTRIBUTE = "itinerary_commitment"

_MAX_URN = 512  # bound on wire-decoded link fields
_MAX_TAG = 64
# Bounds on the replay record of admitted chain tips and on remembered
# itinerary commitments (LRU, oldest dropped first).
_REPLAY_CAPACITY = 4096
_COMMITMENT_CAPACITY = 4096


def state_digest(image: AgentImage, state_bytes: bytes | None = None) -> bytes:
    """The digest of everything a relay host could silently rewrite.

    Covers identity, credentials, code identity, captured state, entry
    method and the home site.  Credentials matter: each delegation link
    is self-certifying, but *stripping* a restriction link wholesale
    yields a chain that still verifies — with more authority than the
    sender forwarded (delegation abuse); sealing the credentials at
    departure makes that a state-tamper.  The trace is covered
    separately (link origins must match it, entry by entry) and the
    attributes are not — they carry the chain itself plus per-transfer
    bookkeeping (``transfer_id``, ``trace_ctx``) that legitimately
    changes between retries.

    ``state_bytes``, when given, must be the canonical encoding of
    ``image.state``: the bytes the sender puts on the wire, or the span
    the receiver decoded.  They are embedded verbatim, which gives the
    same digest as encoding the state again.
    """
    return canonical_digest(
        {
            "name": str(image.name),
            "credentials": _credentials_digest(image.credentials),
            "class_name": image.class_name,
            "source": image.source,
            "entry_method": image.entry_method,
            "home_site": image.home_site,
            "state": image.state if state_bytes is None else Verbatim(state_bytes),
        }
    )


# One entry per touring agent (8 per wave of 8 tours); a miss re-digests.
@functools.lru_cache(maxsize=256)
def _credentials_digest(credentials: object) -> bytes:
    """Digest of a (frozen, value-hashable) credentials object.

    Credentials dominate the encoding cost of :func:`state_digest` (they
    carry certificates with full public keys) and are immutable between
    the hops that re-digest them, so the sub-digest is memoized by value.
    """
    return canonical_digest(credentials)


@functools.lru_cache(maxsize=256)
def genesis_tag(agent: str, home_site: str) -> bytes:
    """The chain anchor: binds link 0 to one agent's identity and home.

    Without it, a valid chain could be transplanted wholesale onto a
    different agent's image (the links themselves never name the agent).
    A pure function of two strings, so memoized.
    """
    return canonical_digest({"genesis": agent, "home": home_site})


# The link fields its tag (and therefore its signature) covers, in order.
_BODY_FIELDS = (
    "hop", "origin", "destination", "state_digest", "timestamp", "prev_tag",
)


@dataclass(frozen=True, slots=True)
class AppraisalLink:
    """One sealed hop: what ``origin`` vouched it sent to ``destination``."""

    hop: int
    origin: str
    destination: str
    state_digest: bytes
    timestamp: float
    prev_tag: bytes
    certificate: Certificate
    signature: bytes

    def body(self) -> dict:
        """The fields the tag (and therefore the signature) covers."""
        return {name: getattr(self, name) for name in _BODY_FIELDS}

    def tag(self) -> bytes:
        """The link's chain tag: a digest of the sealed body."""
        return _link_tag(
            self.hop, self.origin, self.destination, self.state_digest,
            self.timestamp, self.prev_tag,
        )

    def to_state(self) -> dict:
        state = self.body()
        state["certificate"] = self.certificate
        state["signature"] = self.signature
        return state

    @classmethod
    def from_state(cls, state: dict) -> "AppraisalLink":
        hop = state["hop"]
        origin = state["origin"]
        destination = state["destination"]
        digest = state["state_digest"]
        timestamp = state["timestamp"]
        prev_tag = state["prev_tag"]
        certificate = state["certificate"]
        signature = state["signature"]
        if (
            not isinstance(hop, int)
            or isinstance(hop, bool)
            or not (0 <= hop < 2**20)
            or not isinstance(origin, str)
            or not (0 < len(origin) <= _MAX_URN)
            or not isinstance(destination, str)
            or not (0 < len(destination) <= _MAX_URN)
            or not isinstance(digest, bytes)
            or not (0 < len(digest) <= _MAX_TAG)
            or not isinstance(timestamp, float)
            or not isinstance(prev_tag, bytes)
            or not (0 < len(prev_tag) <= _MAX_TAG)
            or not isinstance(certificate, Certificate)
            or not isinstance(signature, bytes)
            or not (0 < len(signature) <= 4096)
        ):
            raise SerializationError("malformed appraisal link")
        return cls(
            hop=hop,
            origin=origin,
            destination=destination,
            state_digest=digest,
            timestamp=timestamp,
            prev_tag=prev_tag,
            certificate=certificate,
            signature=signature,
        )


register_serializable(AppraisalLink, intern=True)


# One entry per sealed link (32 per wave of 8 tours); a miss re-digests.
@functools.lru_cache(maxsize=256)
def _link_tag(*body: object) -> bytes:
    """Memoized chain tag of one link body (:meth:`AppraisalLink.body`).

    A link's tag is recomputed many times over its life — once per chain
    walk at every downstream hop, once under every signature check, once
    when the next link extends it — and it is a pure function of the
    body, so the digest is cached by the body's fields.  Keying on the
    body rather than the whole link lets the signed link reuse the
    digest its unsigned draft computed for the signature.
    """
    return canonical_digest(dict(zip(_BODY_FIELDS, body)))


class HostQuarantine:
    """Hosts this server refuses transfers from, with expiry.

    Entries are keyed two ways: by the peer's server name *and* by the
    fingerprint of the key that sealed the offending appraisal link.
    The second key is what defeats quarantine-evasion by identity
    rotation — a banned host re-registering under a fresh name still
    presents (and must present, for its links to verify) the same
    sealing key.
    """

    def __init__(self, clock: Clock, *, duration: float = 3600.0) -> None:
        self.clock = clock
        self.duration = duration
        self._names: dict[str, float] = {}
        self._fingerprints: dict[str, float] = {}
        self.quarantined_total = 0

    def add(self, name: str, fingerprint: str | None = None) -> None:
        until = self.clock.now() + self.duration
        self._names[name] = until
        if fingerprint is not None:
            self._fingerprints[fingerprint] = until
        self.quarantined_total += 1

    def _live(self, table: dict[str, float], key: str) -> bool:
        until = table.get(key)
        if until is None:
            return False
        if until <= self.clock.now():
            del table[key]
            return False
        return True

    def blocked_name(self, name: str) -> bool:
        return self._live(self._names, name)

    def blocked_fingerprint(self, fingerprint: str) -> bool:
        return self._live(self._fingerprints, fingerprint)

    def active(self) -> tuple[list[str], list[str]]:
        """Currently quarantined (names, fingerprints) — for reports."""
        now = self.clock.now()
        return (
            sorted(n for n, t in self._names.items() if t > now),
            sorted(f for f, t in self._fingerprints.items() if t > now),
        )


class IntegrityAuthority:
    """One server's view of the agent-integrity protocol.

    Owns the host's sealing identity (its key pair + certificate), the
    home-side itinerary MAC key, the replay record of chain tips this
    server already admitted, and the host quarantine.  Certificate and
    link-signature verdicts go to ``verdicts``, the host's one
    verification cache.
    """

    def __init__(
        self,
        *,
        name: str,
        keys: KeyPair,
        certificate: Certificate,
        trust_anchor: TrustAnchor,
        clock: Clock,
        rng: random.Random,
        verdicts: CredentialVerificationCache | None = None,
    ) -> None:
        self.name = name
        self.keys = keys
        self.certificate = certificate
        self.trust_anchor = trust_anchor
        self.clock = clock
        # The host's verdict cache: a certificate or link signature is
        # RSA-checked once per host, never on the word of another host.
        if verdicts is None:
            verdicts = CredentialVerificationCache()
        self.verdicts = verdicts
        self.quarantine = HostQuarantine(clock)
        self.stats = Counter()
        # Home-side itinerary commitments are sealed under a key that
        # never leaves this server; remembering which agents were
        # committed is what catches a host *stripping* the record.
        self._itinerary_key = HmacKey(rng.getrandbits(256).to_bytes(32, "big"))
        self._committed: collections.OrderedDict[str, bytes] = (
            collections.OrderedDict()
        )
        # Chain tips already admitted here: a bounded LRU standing in for
        # a stable-storage record.  A structurally perfect image offered
        # twice (under a fresh transfer id, so dedup cannot see it) is a
        # replayed agent.
        self._seen_tips: collections.OrderedDict[bytes, float] = (
            collections.OrderedDict()
        )

    # -- sealing (sender side) ---------------------------------------------

    def seal_departure(
        self,
        image: AgentImage,
        destination: str,
        state_bytes: bytes | None = None,
    ) -> AgentImage:
        """Append this host's link for the hop ``self.name → destination``.

        Called with the fully captured outgoing image (state, trace and
        per-transfer attributes already stamped); the appended link is
        the chain tip the receiver verifies against the wire image.
        ``state_bytes`` is ``encode(image.state)`` when the caller
        already holds it (see :func:`state_digest`).
        """
        chain = image.attributes.get(APPRAISAL_ATTRIBUTE) or ()
        prev = (
            chain[-1].tag()
            if chain
            else genesis_tag(str(image.name), image.home_site)
        )
        link = self._seal(
            hop=len(chain),
            destination=destination,
            digest=state_digest(image, state_bytes),
            prev_tag=prev,
        )
        self.stats.add("links_sealed")
        return image.with_attributes(**{APPRAISAL_ATTRIBUTE: chain + (link,)})

    def reseal_tip(self, image: AgentImage, destination: str) -> AgentImage:
        """Redirect an already-sealed departure to a new ``destination``.

        Crash recovery re-offers the journaled image verbatim; when the
        original destination stays unreachable the agent goes home
        instead — a *different* hop, so the tip link this host sealed is
        replaced (same hop index, fresh timestamp, new destination).
        Only this host's own tip may be rewritten.
        """
        chain = image.attributes.get(APPRAISAL_ATTRIBUTE) or ()
        if not chain or chain[-1].origin != self.name:
            # Nothing of ours to rewrite (chain-less image, or a tip some
            # other host sealed): leave the image alone — the receiver's
            # verdict is its own business.
            return image
        tip = chain[-1]
        link = self._seal(
            hop=tip.hop,
            destination=destination,
            digest=tip.state_digest,
            prev_tag=tip.prev_tag,
        )
        self.stats.add("links_resealed")
        return image.with_attributes(
            **{APPRAISAL_ATTRIBUTE: chain[:-1] + (link,)}
        )

    def _seal(
        self, *, hop: int, destination: str, digest: bytes, prev_tag: bytes
    ) -> AppraisalLink:
        unsigned = AppraisalLink(
            hop=hop,
            origin=self.name,
            destination=destination,
            state_digest=digest,
            timestamp=self.clock.now(),
            prev_tag=prev_tag,
            certificate=self.certificate,
            signature=b"",
        )
        tag = unsigned.tag()
        signature = self.keys.private.sign(tag)
        # This host's own seal: when the agent comes back, its arrival
        # check finds the verdict here instead of RSA-verifying it.
        self.verdicts.remember_signature(
            self.certificate.public_key, tag, signature
        )
        return dataclasses.replace(unsigned, signature=signature)

    # -- verification (receiver side) --------------------------------------

    def verify_arrival(
        self, image: AgentImage, peer: str, state_bytes: bytes | None = None
    ) -> bytes:
        """Appraise an image arriving from authenticated ``peer``.

        ``state_bytes`` is the span of the received bytes that carried
        ``image.state`` (see :func:`~repro.agents.transfer.decode_image`);
        the state-tamper check digests exactly those bytes.  Without it
        the decoded state is encoded again.

        Returns the verified chain-tip tag (the caller records it via
        :meth:`remember` once the agent is actually admitted, so a
        refused-for-other-reasons image never poisons the replay record).
        Raises :class:`AgentIntegrityError` with a ``reason`` naming the
        first failed check.
        """
        agent = str(image.name)

        def reject(reason: str, detail: str, **extra: object) -> AgentIntegrityError:
            self.stats.add("appraisals_failed")
            self.stats.add(f"appraisal_reject_{reason.replace('-', '_')}")
            return AgentIntegrityError(
                f"agent {agent} from {peer}: {detail}",
                reason=reason, peer=peer, agent=agent, **extra,
            )

        chain = image.attributes.get(APPRAISAL_ATTRIBUTE)
        if not isinstance(chain, tuple) or not chain or not all(
            isinstance(link, AppraisalLink) for link in chain
        ):
            raise reject("missing-chain", "no appraisal chain on the image")
        if len(chain) != len(image.trace):
            raise reject(
                "trace-mismatch",
                f"{len(chain)} appraisal link(s) for {len(image.trace)} hop(s)",
            )
        tip = chain[-1]
        fingerprint = tip.certificate.public_key.fingerprint()
        # Quarantine-evasion check: the sealing key is banned even if the
        # peer re-registered under a new name.
        if self.quarantine.blocked_fingerprint(fingerprint):
            self.stats.add("quarantine_evasions_blocked")
            raise reject(
                "quarantine-evasion",
                f"sealing key {fingerprint} is quarantined",
                fingerprint=fingerprint,
            )
        prev = genesis_tag(agent, image.home_site)
        tags = []
        last_ts = float("-inf")
        for i, link in enumerate(chain):
            if link.hop != i:
                raise reject(
                    "hop-mismatch",
                    f"link {i} claims hop index {link.hop}",
                    fingerprint=fingerprint,
                )
            if link.origin != image.trace[i]:
                raise reject(
                    "trace-mismatch",
                    f"link {i} sealed by {link.origin} but trace says "
                    f"{image.trace[i]}",
                    fingerprint=fingerprint,
                )
            if link.prev_tag != prev:
                raise reject(
                    "chain-broken",
                    f"link {i} does not extend its predecessor's tag",
                    fingerprint=fingerprint,
                )
            if link.timestamp < last_ts:
                raise reject(
                    "chain-broken",
                    f"link {i} timestamp runs backwards",
                    fingerprint=fingerprint,
                )
            last_ts = link.timestamp
            prev = link.tag()
            tags.append(prev)
        # Hop-to-hop linkage: each sealed destination must be the next
        # sealer (the last one is this server, checked below).  A pair of
        # colluding hosts that diverts an agent off its sealed path is
        # caught at the first honest server downstream.
        for i in range(len(chain) - 1):
            if chain[i].destination != chain[i + 1].origin:
                raise reject(
                    "route-violation",
                    f"link {i} was sealed for {chain[i].destination} but "
                    f"link {i + 1} was sealed by {chain[i + 1].origin}",
                    fingerprint=fingerprint,
                )
        if tip.destination != self.name:
            raise reject(
                "misdirected",
                f"tip link was sealed for {tip.destination}, not this server",
                fingerprint=fingerprint,
            )
        if tip.origin != peer:
            raise reject(
                "origin-spoof",
                f"tip link sealed by {tip.origin} but delivered by {peer}",
                fingerprint=fingerprint,
            )
        if tip.state_digest != state_digest(image, state_bytes):
            raise reject(
                "state-tampered",
                "arriving state does not match the sealed digest",
                fingerprint=fingerprint,
            )
        now = self.clock.now()
        for i, (link, tag) in enumerate(zip(chain, tags)):
            if link.certificate.subject != link.origin:
                raise reject(
                    "impostor-cert",
                    f"link {i} certificate names {link.certificate.subject}, "
                    f"not {link.origin}",
                    fingerprint=fingerprint,
                )
            try:
                self.verdicts.validate(
                    link.certificate, self.trust_anchor, now
                )
            except CredentialError as exc:
                raise reject(
                    "untrusted-cert",
                    f"link {i} certificate failed validation: {exc}",
                    fingerprint=fingerprint,
                ) from exc
            if not self.verdicts.signature_ok(
                link.certificate.public_key, tag, link.signature
            ):
                raise reject(
                    "bad-signature",
                    f"link {i} signature does not verify",
                    fingerprint=fingerprint,
                )
        tip_tag = prev  # loop left ``prev`` at the tip's tag
        if tip_tag in self._seen_tips:
            raise reject(
                "replayed",
                "this sealed image was already admitted here",
                fingerprint=fingerprint,
            )
        self.stats.add("appraisals_verified")
        return tip_tag

    def remember(self, tip_tag: bytes) -> None:
        """Record an admitted chain tip for replay detection."""
        self._seen_tips[tip_tag] = self.clock.now()
        self._seen_tips.move_to_end(tip_tag)
        while len(self._seen_tips) > _REPLAY_CAPACITY:
            self._seen_tips.popitem(last=False)

    # -- itinerary commitments (home side) ---------------------------------

    def commit_itinerary(self, image: AgentImage) -> AgentImage:
        """Seal the launched agent's planned tour under the home MAC key.

        No-op unless the agent carries an :class:`Itinerary` in its state
        and no commitment yet.  The commitment travels with the agent
        (hosts can read the plan — it was theirs to see anyway) but only
        this server can mint or verify one.
        """
        itinerary = image.state.get("itinerary")
        if not isinstance(itinerary, Itinerary):
            return image
        if COMMITMENT_ATTRIBUTE in image.attributes:
            return image
        commitment = ItineraryCommitment.issue(
            self._itinerary_key,
            agent=str(image.name),
            home=self.name,
            stops=tuple((s.server, s.method) for s in itinerary.stops),
            issued_at=self.clock.now(),
        )
        self._committed[str(image.name)] = commitment.mac
        self._committed.move_to_end(str(image.name))
        while len(self._committed) > _COMMITMENT_CAPACITY:
            self._committed.popitem(last=False)
        self.stats.add("itineraries_committed")
        return image.with_attributes(**{COMMITMENT_ATTRIBUTE: commitment})

    def verify_return(self, image: AgentImage, peer: str) -> None:
        """Home-side re-appraisal: the completed tour against the plan.

        Called when an agent arrives back at its home site.  Verifies the
        commitment MAC (only this server's key can have minted it), that
        it names this agent, and that every server the appraisal chain
        shows the agent visiting was part of the committed plan (the home
        site itself is always legitimate — failure handling diverts
        agents home).  Also catches a host *stripping* the commitment:
        agents this server committed at launch must still carry it.
        """
        agent = str(image.name)
        commitment = image.attributes.get(COMMITMENT_ATTRIBUTE)
        expected_mac = self._committed.get(agent)
        if commitment is None:
            if expected_mac is not None:
                self.stats.add("appraisals_failed")
                self.stats.add("appraisal_reject_itinerary_stripped")
                raise AgentIntegrityError(
                    f"agent {agent} from {peer}: itinerary commitment "
                    "stripped in transit",
                    reason="itinerary-stripped", peer=peer, agent=agent,
                )
            return
        if not isinstance(commitment, ItineraryCommitment):
            raise AgentIntegrityError(
                f"agent {agent} from {peer}: malformed itinerary commitment",
                reason="itinerary-forged", peer=peer, agent=agent,
            )

        def reject(reason: str, detail: str) -> AgentIntegrityError:
            self.stats.add("appraisals_failed")
            self.stats.add(f"appraisal_reject_{reason.replace('-', '_')}")
            return AgentIntegrityError(
                f"agent {agent} from {peer}: {detail}",
                reason=reason, peer=peer, agent=agent,
            )

        if commitment.home != self.name or not commitment.verify(
            self._itinerary_key
        ):
            raise reject(
                "itinerary-forged",
                "itinerary commitment MAC does not verify under the home key",
            )
        if expected_mac is not None and commitment.mac != expected_mac:
            raise reject(
                "itinerary-forged",
                "itinerary commitment is not the one sealed at launch",
            )
        if commitment.agent != agent:
            raise reject(
                "itinerary-forged",
                f"itinerary commitment names {commitment.agent}",
            )
        planned = {server for server, _ in commitment.stops}
        planned.add(self.name)
        visited = set(image.trace)
        off_plan = sorted(visited - planned)
        if off_plan:
            raise reject(
                "itinerary-violation",
                f"tour visited server(s) outside the committed plan: "
                f"{', '.join(off_plan)}",
            )
        self.stats.add("itineraries_verified")

    def report(self) -> dict:
        """Operator summary (quarantine state + counters)."""
        names, fingerprints = self.quarantine.active()
        return {
            "quarantined_hosts": names,
            "quarantined_fingerprints": fingerprints,
            "appraisals_verified": self.stats["appraisals_verified"],
            "appraisals_failed": self.stats["appraisals_failed"],
            "links_sealed": self.stats["links_sealed"],
        }
