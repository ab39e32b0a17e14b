"""The agent wire format.

An :class:`AgentImage` is everything that travels when an agent migrates:
identity and credentials, code (source for untrusted agents, a trusted
class name otherwise), captured state, the entry method for the next
stop, the home site, and the trace of servers visited.

The image is serialized with the canonical codec and shipped over a
mutually authenticated secure channel (:mod:`repro.net.secure_channel`),
which provides the transfer protocol's confidentiality and integrity
(section 2).  Validation on arrival — credential verification, code
verification, size limits — is the admission control in
:mod:`repro.server.admission`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.credentials.delegation import DelegatedCredentials
from repro.errors import AgentAttributeError, TransferError
from repro.naming.urn import URN
from repro.util.serialization import (
    Verbatim,
    decode,
    encode,
    register_serializable,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.agents.agent import Agent

__all__ = ["AgentImage", "capture_image", "decode_image", "encode_image"]

DEFAULT_MAX_IMAGE_BYTES = 1024 * 1024

# Bounds :meth:`AgentImage.from_attributes` enforces on wire-decoded
# attribute payloads (attacker-controlled input, validated before any
# deeper admission work touches it).
MAX_ATTRIBUTE_KEYS = 32
MAX_ATTRIBUTE_KEY_CHARS = 64
MAX_ATTRIBUTE_SCALAR_BYTES = 4096
MAX_APPRAISAL_LINKS = 64


@dataclass(frozen=True, slots=True)
class AgentImage:
    """A migrating agent, at rest."""

    name: URN
    credentials: DelegatedCredentials
    class_name: str
    source: str  # "" for trusted classes
    state: dict[str, Any]
    entry_method: str
    home_site: str
    trace: tuple[str, ...] = ()
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def is_trusted_code(self) -> bool:
        return self.source == ""

    def with_hop(self, server: str) -> "AgentImage":
        return replace(self, trace=self.trace + (server,))

    def with_state(self, state: dict[str, Any], entry_method: str) -> "AgentImage":
        return replace(self, state=state, entry_method=entry_method)

    def with_attributes(self, **attributes: Any) -> "AgentImage":
        """A copy with ``attributes`` merged in (a fresh dict — images
        share attribute dicts after ``replace``, so never mutate)."""
        return replace(self, attributes={**self.attributes, **attributes})

    @property
    def transfer_id(self) -> str | None:
        """The exactly-once handoff id the sender stamped, if any."""
        tid = self.attributes.get("transfer_id") if isinstance(
            self.attributes, dict
        ) else None
        return tid if isinstance(tid, str) else None

    def wire_size(self) -> int:
        """Bytes this image occupies on the wire (for benchmarks)."""
        return len(encode(self))

    @classmethod
    def from_attributes(cls, attributes: Any) -> dict[str, Any]:
        """Validate a wire-decoded attribute mapping against the whitelist.

        Attributes ride outside the signed/sealed parts of the image, so
        a peer can stuff anything here; this is the one place their
        shape is enforced.  Reserved keys (``transfer_id``,
        ``trace_ctx``, ``ns_token``, ``returned_home``, ``appraisal``,
        ``itinerary_commitment``) must have exactly the type the
        protocol stamps; any other key may only carry a bounded scalar.
        Returns the mapping unchanged on success; raises
        :class:`~repro.errors.AgentAttributeError` naming the offending
        key otherwise.  (Duplicate wire keys never reach this point —
        the canonical decoder rejects non-canonical dict encodings.)
        """
        if not isinstance(attributes, dict):
            raise AgentAttributeError("agent image attributes must be a mapping")
        if len(attributes) > MAX_ATTRIBUTE_KEYS:
            raise AgentAttributeError(
                f"{len(attributes)} attribute keys exceed the "
                f"{MAX_ATTRIBUTE_KEYS}-key limit"
            )
        # Local import: integrity builds on the image type, not vice versa.
        from repro.agents.integrity import AppraisalLink
        from repro.agents.itinerary import ItineraryCommitment

        for key, value in attributes.items():
            if not isinstance(key, str) or not (
                0 < len(key) <= MAX_ATTRIBUTE_KEY_CHARS
            ):
                raise AgentAttributeError(
                    f"invalid attribute key {key!r}", key=str(key)[:80]
                )
            if key == "transfer_id":
                ok = isinstance(value, str) and 0 < len(value) <= 128
            elif key == "trace_ctx":
                ok = (
                    isinstance(value, dict)
                    and len(value) <= 8
                    and all(
                        isinstance(k, str)
                        and len(k) <= 64
                        and isinstance(v, str)
                        and len(v) <= 128
                        for k, v in value.items()
                    )
                )
            elif key == "ns_token":
                ok = isinstance(value, str) and 0 < len(value) <= 256
            elif key == "returned_home":
                ok = isinstance(value, bool)
            elif key == "appraisal":
                ok = (
                    isinstance(value, tuple)
                    and 0 < len(value) <= MAX_APPRAISAL_LINKS
                    and all(isinstance(link, AppraisalLink) for link in value)
                )
            elif key == "itinerary_commitment":
                ok = isinstance(value, ItineraryCommitment)
            elif isinstance(value, (str, bytes)):
                ok = len(value) <= MAX_ATTRIBUTE_SCALAR_BYTES
            else:
                ok = value is None or isinstance(value, (bool, int, float))
            if not ok:
                raise AgentAttributeError(
                    f"attribute {key!r} violates the wire whitelist", key=key
                )
        return attributes

    def to_state(self) -> dict:
        return {
            "name": self.name,
            "credentials": self.credentials,
            "class_name": self.class_name,
            "source": self.source,
            "state": self.state,
            "entry_method": self.entry_method,
            "home_site": self.home_site,
            "trace": self.trace,
            "attributes": self.attributes,
        }

    @classmethod
    def from_state(cls, state: dict) -> "AgentImage":
        return cls(
            name=state["name"],
            credentials=state["credentials"],
            class_name=state["class_name"],
            source=state["source"],
            state=state["state"],
            entry_method=state["entry_method"],
            home_site=state["home_site"],
            trace=tuple(state["trace"]),
            attributes=state["attributes"],
        )


register_serializable(AgentImage)


def encode_image(image: AgentImage, state_bytes: bytes | None = None) -> bytes:
    """The wire bytes of ``image``, i.e. ``encode(image)``.

    ``state_bytes``, when given, must be ``encode(image.state)`` (the
    bytes the sender already digested for the appraisal seal); they are
    embedded verbatim instead of encoding the state a second time.
    """
    if state_bytes is not None:
        image = replace(image, state=Verbatim(state_bytes))
    return encode(image)


def decode_image(body: bytes) -> tuple[AgentImage, bytes]:
    """Decode wire bytes into an image and the exact bytes of its state.

    The second item is the state entry's span in ``body``, which the
    canonical codec guarantees equals ``encode(image.state)``: the
    receiver digests what it received instead of re-encoding it.
    """
    spans: dict[Any, tuple[int, int]] = {}
    image = decode(body, spans=spans)
    if not isinstance(image, AgentImage):
        raise TransferError("payload is not an agent image")
    start, end = spans["state"]
    return image, body[start:end]


def capture_image(
    agent: "Agent",
    *,
    credentials: DelegatedCredentials,
    entry_method: str,
    home_site: str,
    source: str = "",
    trace: tuple[str, ...] = (),
    attributes: dict[str, Any] | None = None,
) -> AgentImage:
    """Build the wire image of a live agent instance."""
    if not hasattr(type(agent), entry_method):
        raise TransferError(
            f"{type(agent).__name__} has no entry method {entry_method!r}"
        )
    return AgentImage(
        name=credentials.agent,
        credentials=credentials,
        class_name=type(agent).__name__,
        source=source,
        state=agent.capture_state(),
        entry_method=entry_method,
        home_site=home_site,
        trace=trace,
        attributes=dict(attributes or {}),
    )
