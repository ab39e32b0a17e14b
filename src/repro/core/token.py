"""Capability tokens and protection-ring trust tiers.

The paper's bet is that access control is *front-loaded*: ``getProxy``
pays the policy decision once and the per-call path is a handful of local
checks.  PR 1 memoized the decision, but the warm path still consulted
shared state (the grant cache) on every re-bind, and every invocation
re-derived context from per-proxy attribute soup.  This module finishes
the job with two classic security patterns:

**CAPABILITY** — the sparse access matrix becomes a ticket.  At
``getProxy`` time the resource mints a compact, MAC-signed
:class:`CapabilityToken` carrying everything enforcement needs: grantee
identity, resource id, an enabled-method *bitmask*, expiry, and the
epoch pair it was minted under.  Re-binding (including after migration)
redeems the token with a pure-local O(1) check — bitmask, epoch compare,
confinement — touching no policy, no grant cache, no shared state beyond
two epoch cells.  The full :class:`~repro.core.access_protocol
.AccessProtocol` path runs only on epoch mismatch, token expiry, or
token absence.

**Revocation via epochs.**  Tokens are bearer-shaped, so revocation must
not depend on finding every outstanding copy.  Every grantee identity
and every resource carries a monotonic epoch counter here; tokens record
the values at mint time and fail closed the moment either moves.
``revoke_for``/``revoke_all``/``set_policy`` and agent retirement bump
the relevant epoch — one integer increment invalidates any number of
outstanding tokens, wherever they are.  A stale token is not an error:
the holder falls back to the full authorization path, which either
re-mints (innocuous bump) or denies (the policy changed underneath).

**PROTECTION RINGS** — trust tiers assigned at admission.  Ring 0
(trusted launcher) skips audit and metering bookkeeping it does not
need; ring 1 (verified) pays the standard checks; ring 2 (untrusted)
pays full mediation including a per-invocation audit trail.  The ring is
baked into the proxy's dispatch path once at instantiation — never
re-examined per call.  Supervision gates (bulkheads, quotas, deadlines)
apply to *every* ring: trust buys less bookkeeping, never fewer safety
interlocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.crypto.mac import HmacKey
from repro.errors import TokenInvalidError
from repro.sandbox.domain import RING_TRUSTED, RING_UNTRUSTED, RING_VERIFIED
from repro.sim.monitor import Counter

__all__ = [
    "RING_TRUSTED",
    "RING_VERIFIED",
    "RING_UNTRUSTED",
    "RING_NAMES",
    "EpochCell",
    "EpochRegistry",
    "CapabilityToken",
    "TokenAuthority",
    "method_bits",
    "mask_of",
    "methods_of",
]

# -- protection rings --------------------------------------------------------

RING_NAMES = {RING_TRUSTED: "ring0", RING_VERIFIED: "ring1", RING_UNTRUSTED: "ring2"}


# -- method bitmasks ---------------------------------------------------------


def method_bits(resource_cls: type) -> dict[str, int]:
    """``method name → single-bit mask`` over the exported interface.

    Bit positions follow :func:`~repro.core.resource.exported_methods`
    order, so the mapping is stable for a class's lifetime and identical
    on every server that loads the same class.  Cached on the class.
    """
    cached = resource_cls.__dict__.get("__method_bits__")
    if cached is None:
        from repro.core.resource import exported_methods

        cached = {
            name: 1 << index
            for index, name in enumerate(exported_methods(resource_cls))
        }
        resource_cls.__method_bits__ = cached
    return cached


def mask_of(resource_cls: type, methods) -> int:
    """The bitmask enabling exactly ``methods`` of ``resource_cls``."""
    bits = method_bits(resource_cls)
    mask = 0
    for name in methods:
        mask |= bits.get(name, 0)
    return mask


def methods_of(resource_cls: type, mask: int) -> frozenset[str]:
    """The method names a bitmask enables (inverse of :func:`mask_of`)."""
    return frozenset(
        name for name, bit in method_bits(resource_cls).items() if mask & bit
    )


def interface_digest(resource_cls: type) -> str:
    """A short stable digest of the class's exported interface.

    Baked into every token so a mask minted against one interface layout
    can never be misread against another (e.g. after a class was
    redefined with methods in a different order).
    """
    cached = resource_cls.__dict__.get("__iface_digest__")
    if cached is None:
        import hashlib

        from repro.core.resource import exported_methods

        blob = "\x1f".join(exported_methods(resource_cls)).encode()
        cached = hashlib.sha256(blob).hexdigest()[:16]
        resource_cls.__iface_digest__ = cached
    return cached


# -- epochs ------------------------------------------------------------------


class EpochCell:
    """One mutable epoch counter, shared by reference.

    Proxies and tokens hold the *cell*, not a snapshot: the hot-path
    staleness check is two attribute reads and an integer compare.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EpochCell({self.value})"


class EpochRegistry:
    """Per-holder and per-resource epoch counters.

    *Holder* epochs key on the grantee's stable identity (the agent URN,
    which survives migration — protection-domain ids do not), *resource*
    epochs on the resource URN.  Bumping either is O(1) revocation of
    every outstanding token minted under the old value: stale tokens
    fail closed into the full authorization path.

    The servers of one world share a registry: it stands in for a
    revocation broadcast, so a holder bump on any host reaches the
    tokens every host minted at once.

    The cell maps are softly bounded: past the cap, the oldest cells are
    dropped.  A proxy still holding a dropped cell simply goes stale at
    its next call (the registry hands out a fresh zero-valued cell with
    a different identity), re-validates, and re-mints — fail-closed by
    construction.
    """

    _CELL_CAP = 65536

    def __init__(self) -> None:
        self._holders: dict[str, EpochCell] = {}
        self._resources: dict[str, EpochCell] = {}

    def _cell(self, table: dict[str, EpochCell], key: str) -> EpochCell:
        cell = table.get(key)
        if cell is None:
            if len(table) >= self._CELL_CAP:
                for stale_key in list(table)[: self._CELL_CAP // 4]:
                    del table[stale_key]
            cell = table[key] = EpochCell()
        return cell

    def holder_cell(self, grantee: str) -> EpochCell:
        return self._cell(self._holders, grantee)

    def resource_cell(self, resource: str) -> EpochCell:
        return self._cell(self._resources, resource)

    def bump_holder(self, grantee: str) -> int:
        """Invalidate every outstanding token minted to ``grantee``."""
        cell = self._cell(self._holders, grantee)
        cell.value += 1
        return cell.value

    def bump_resource(self, resource: str) -> int:
        """Invalidate every outstanding token minted for ``resource``."""
        cell = self._cell(self._resources, resource)
        cell.value += 1
        return cell.value


# -- the token ---------------------------------------------------------------

_WIRE_VERSION = "cap1"
_TAG_SIZE = 32


@dataclass(frozen=True, slots=True)
class CapabilityToken:
    """A signed, self-describing grant: the sparse access matrix as a ticket.

    Everything the O(1) enforcement check consumes is in the token;
    nothing requires consulting the resource's policy, the grant cache,
    or the credential chain.  The MAC tag covers every field, so a token
    is tamper-evident end-to-end (it rides agent state across hops).
    """

    grantee: str  # the agent URN (stable across migration)
    resource: str  # the resource URN
    resource_kind: str  # resource class name (permission prefix)
    iface_digest: str  # digest of the interface layout the mask indexes
    mask: int  # enabled-method bitmask
    ring: int  # protection ring at mint time
    confine: bool  # identity-based capability confinement
    lease: float | None  # grant lifetime to apply on redemption
    issued_at: float
    expires_at: float | None  # token ttl (staleness bound, not the lease)
    holder_epoch: int
    resource_epoch: int
    tag: bytes  # HMAC over packed()

    def packed(self) -> bytes:
        """The canonical byte encoding the MAC covers."""
        return "|".join(
            (
                _WIRE_VERSION,
                self.grantee,
                self.resource,
                self.resource_kind,
                self.iface_digest,
                format(self.mask, "x"),
                str(self.ring),
                "1" if self.confine else "0",
                repr(self.lease),
                repr(self.issued_at),
                repr(self.expires_at),
                str(self.holder_epoch),
                str(self.resource_epoch),
            )
        ).encode()

    def to_wire(self) -> bytes:
        """Wire form: packed fields + the 32-byte tag (rides agent state)."""
        return self.packed() + self.tag

    @classmethod
    def from_wire(cls, data: bytes) -> "CapabilityToken":
        """Parse a wire token.  Raises :class:`TokenInvalidError` on junk.

        Parsing does **not** authenticate — the authority's
        :meth:`TokenAuthority.validate` checks the tag.
        """
        if not isinstance(data, (bytes, bytearray)) or len(data) <= _TAG_SIZE:
            raise TokenInvalidError("capability token wire form too short")
        packed, tag = bytes(data[:-_TAG_SIZE]), bytes(data[-_TAG_SIZE:])
        try:
            fields = packed.decode().split("|")
            (version, grantee, resource, kind, iface, mask_hex, ring,
             confine, lease, issued, expires, hepoch, repoch) = fields
            if version != _WIRE_VERSION:
                raise TokenInvalidError(
                    f"unsupported token version {version!r}"
                )
            token = cls(
                grantee=grantee,
                resource=resource,
                resource_kind=kind,
                iface_digest=iface,
                mask=int(mask_hex, 16),
                ring=int(ring),
                confine=confine == "1",
                lease=None if lease == "None" else float(lease),
                issued_at=float(issued),
                expires_at=None if expires == "None" else float(expires),
                holder_epoch=int(hepoch),
                resource_epoch=int(repoch),
                tag=tag,
            )
        except TokenInvalidError:
            raise
        except (ValueError, UnicodeDecodeError) as exc:
            raise TokenInvalidError(f"malformed capability token: {exc}") from exc
        if token.packed() != packed:
            # Non-canonical re-encoding would de-sync the MAC input.
            raise TokenInvalidError("capability token is not canonical")
        return token

    def permits(self, method_bit: int) -> bool:
        return bool(self.mask & method_bit)


class TokenAuthority:
    """Mints and validates capability tokens under one MAC key.

    One authority per host: each server keys its own from its key pair,
    so a token authenticates only at the server that minted it, and a
    resource no server hosts gets one of its own.  ``registry`` holds
    the epochs it mints under (default: a fresh one).  Validation has a
    **warm path**: a bounded map of recently verified ``tag → packed`` pairs
    turns repeat validation of the same token into one dict probe and a
    bytes compare (~100ns) instead of an HMAC (~1µs).  The pair is a
    sound cache key — the MAC is a deterministic function, so a
    (tag, packed) pair that verified once verifies forever.
    """

    # One token per binding (8 per host per wave of 8 tours); a miss re-MACs.
    _SEEN_MAX = 256

    def __init__(
        self,
        key: bytes | None = None,
        *,
        ttl: float | None = 300.0,
        registry: EpochRegistry | None = None,
    ) -> None:
        if key is None:
            import os

            key = os.urandom(32)
        self._mac = HmacKey(key)
        #: Token time-to-live: a crypto-hygiene staleness bound, distinct
        #: from the grant's lease.  An expired token silently re-validates
        #: through the full path and re-mints; a lapsed lease raises.
        self.ttl = ttl
        self.registry = registry if registry is not None else EpochRegistry()
        self._seen: dict[bytes, bytes] = {}
        #: This host's access-control counts: the authority's own
        #: (minted, validate_warm/cold, stale_epoch/expired, rejected)
        #: and those its resources and their proxies add (grants, redeems,
        #: denials, revocations, epoch bumps).
        self.stats = Counter()

    # -- minting ------------------------------------------------------------

    def mint(
        self,
        *,
        grantee: str,
        resource: str,
        resource_kind: str,
        iface_digest: str,
        mask: int,
        ring: int,
        confine: bool,
        lease: float | None,
        now: float,
    ) -> CapabilityToken:
        holder_epoch = self.registry.holder_cell(grantee).value
        resource_epoch = self.registry.resource_cell(resource).value
        expires_at = now + self.ttl if self.ttl is not None else None
        token = CapabilityToken(
            grantee=grantee,
            resource=resource,
            resource_kind=resource_kind,
            iface_digest=iface_digest,
            mask=mask,
            ring=ring,
            confine=confine,
            lease=lease,
            issued_at=now,
            expires_at=expires_at,
            holder_epoch=holder_epoch,
            resource_epoch=resource_epoch,
            tag=b"",
        )
        packed = token.packed()
        tag = self._mac.digest(packed)
        token = replace(token, tag=tag)
        self._remember(tag, packed)
        self.stats.add("minted")
        return token

    def _remember(self, tag: bytes, packed: bytes) -> None:
        seen = self._seen
        if len(seen) >= self._SEEN_MAX:
            for stale in list(seen)[: self._SEEN_MAX // 4]:
                del seen[stale]
        seen[tag] = packed

    # -- revocation ---------------------------------------------------------

    def bump_holder(self, grantee: str) -> None:
        """Stale every token minted to ``grantee``, on every host of the
        registry; the bump is counted on this host."""
        self.registry.bump_holder(grantee)
        self.stats.add("holder_bumps")

    def bump_resource(self, resource: str) -> None:
        """Stale every token minted for ``resource`` (counted here)."""
        self.registry.bump_resource(resource)
        self.stats.add("resource_bumps")

    # -- validation ---------------------------------------------------------

    def authenticate(self, token: CapabilityToken) -> bytes:
        """Check the tag only.  Returns the packed bytes on success.

        Warm path: a (tag, packed) pair this authority has verified (or
        minted) before skips the HMAC entirely.
        """
        packed = token.packed()
        if self._seen.get(token.tag) == packed:
            self.stats.add("validate_warm")
            return packed
        if not self._mac.verify(packed, token.tag):
            self.stats.add("rejected")
            raise TokenInvalidError(
                f"capability token for {token.resource} failed authentication"
            )
        self.stats.add("validate_cold")
        self._remember(token.tag, packed)
        return packed

    def is_fresh(self, token: CapabilityToken, now: float) -> bool:
        """The O(1) staleness check: epoch compare + ttl.

        ``False`` means *stale*, not invalid — the caller falls back to
        the full authorization path (which re-mints on success).
        """
        if (
            self.registry.holder_cell(token.grantee).value != token.holder_epoch
            or self.registry.resource_cell(token.resource).value
            != token.resource_epoch
        ):
            self.stats.add("stale_epoch")
            return False
        if token.expires_at is not None and now > token.expires_at:
            self.stats.add("stale_expired")
            return False
        return True
