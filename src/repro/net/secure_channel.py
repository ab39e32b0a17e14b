"""Authenticated, private, replay-protected channels between hosts.

Implements the section-2 requirements end-to-end:

* **Mutual authentication** — a four-flight handshake in which both sides
  present CA-issued certificates and prove possession of their private
  keys (the responder by deriving the KEM session key, the initiator by
  signing the key-exchange transcript).
* **Privacy + integrity** — every data payload is sealed with the AEAD
  cipher (the channel's :class:`repro.crypto.cipher.SealContext`,
  created once per session); tampering raises
  :class:`~repro.errors.IntegrityError` at the receiver and the message
  is discarded (and counted).
* **Replay protection** — strictly increasing sequence numbers inside the
  sealed header; duplicates are rejected.

Handshake transcript (all timing/bytes go over the plain transport, so
adversaries can attack every flight)::

    A -> B  sec.hello   {cert_A, nonce_A}
    B -> A  (reply)     {cert_B, nonce_B, sig_B(nonce_A, nonce_B, A, B)}
    A -> B  sec.keyex   {channel, kem_ct, sig_A(nonce_A, nonce_B, kem_ct, A, B)}
    B -> A  (reply)     {confirm = HMAC(K, "confirm" || nonce_A)}

with ``K = SHA256(kem_shared || nonce_A || nonce_B)``.  The responder
keeps at most one half-done handshake per initiator: a new hello from a
peer replaces that peer's older one, whose keyex is then refused.

**Single-flight connect.**  :meth:`SecureHost.connect` runs at most one
handshake per peer at a time.  The first caller runs it; callers that
arrive while it is in flight wait for it, each bounded by its own
``timeout``, and get the same channel or the same failure.  A leader
killed mid-handshake fails its waiters instead of stranding them.

**Reaching a peer.**  :meth:`SecureHost.call` (request/response) and
:meth:`SecureHost.send` (one-way) are the one way to exchange with a
peer: each connects (or reuses the cached channel), runs the exchange
under one ``timeout`` that bounds the handshake and the reply alike,
and on any :class:`~repro.errors.ReproError` forgets the cached channel
before it re-raises.  A peer that crashed and restarted has lost its
end of every channel, so a failed exchange invalidates the channel and
the next one handshakes afresh; callers never evict channels
themselves.

**Data frames.**  Handshake flights use the canonical codec (they carry
certificates); a data frame is one fixed binary layout::

    clear:   u16 len(channel_id) | channel_id | sealed
    sealed:  AEAD(plaintext, associated_data=channel_id)
    plaintext:
             u64 seq | u8 flags | u16 len(app_kind) | u16 len(corr)
             | app_kind | corr | body

All integers are big-endian.  ``flags`` bit 0 marks a reply and bit 1 a
:meth:`SecureChannel.send_many` batch, whose body is ``u32 count`` then
``count`` times ``u32 len | bytes``.  ``app_kind`` and ``corr`` travel
sealed; only the channel id, which routes the frame, is in clear.
"""

from __future__ import annotations

import random
import struct
from typing import Callable

from repro.crypto.cert import Certificate
from repro.crypto.trust import TrustAnchor
from repro.crypto.cipher import NONCE_SIZE, SealContext
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.crypto.mac import hmac_sha256, verify_hmac
from repro.errors import (
    AuthenticationError,
    CredentialError,
    IntegrityError,
    NetworkError,
    ReplayError,
    ReproError,
    SecurityException,
)
from repro.net.message import Message
from repro.net.transport import Endpoint
from repro.obs import runtime as _obs
from repro.sim.monitor import Counter
from repro.sim.sync import SimEvent
from repro.util.clock import Clock
from repro.util.ids import IdGenerator
from repro.util.serialization import canonical_digest, decode, encode

__all__ = ["SecureHost", "SecureChannel", "frame"]

AppHandler = Callable[[str, bytes], "bytes | None"]
# app handler signature: (peer_name, body) -> optional reply body

_HELLO = "sec.hello"
_KEYEX = "sec.keyex"
_DATA = "sec.data"

_PREFIX = struct.Struct(">H")  # len(channel_id)
_HEADER = struct.Struct(">QBHH")  # seq, flags, len(app_kind), len(corr)
_U32 = struct.Struct(">I")  # batch count and per-body length
_REPLY = 0x01
_BATCH = 0x02


def frame(channel_id: str, sealed: bytes) -> bytes:
    """The wire form of a data frame: the routing prefix, then ``sealed``."""
    cid = channel_id.encode()
    return _PREFIX.pack(len(cid)) + cid + sealed


def _unframe(payload: bytes) -> tuple[str, bytes]:
    """``frame`` inverted; ``struct.error`` or ``ValueError`` if truncated."""
    end = _PREFIX.size + _PREFIX.unpack_from(payload)[0]
    if end > len(payload):
        raise ValueError("channel id runs past the frame")
    return payload[_PREFIX.size:end].decode(), payload[end:]


def _header(seq: int, flags: int, app_kind: str, corr: str) -> bytes:
    kind, cid = app_kind.encode(), corr.encode()
    return _HEADER.pack(seq, flags, len(kind), len(cid)) + kind + cid


def _parse(plaintext: bytes) -> tuple[int, int, str, str, bytes | list[bytes]]:
    """Opened plaintext -> (seq, flags, app_kind, corr, body or batch).

    Strict: a short header, unknown flags, lengths past the end and batch
    trailing bytes raise ``ValueError`` or ``struct.error``, before
    anything is dispatched.
    """
    seq, flags, kind_len, corr_len = _HEADER.unpack_from(plaintext)
    if flags & ~(_REPLY | _BATCH):
        raise ValueError(f"unknown frame flags {flags:#x}")
    at = _HEADER.size + kind_len
    corr_end = at + corr_len
    if corr_end > len(plaintext):
        raise ValueError("header runs past the frame")
    app_kind = plaintext[_HEADER.size:at].decode()
    corr = plaintext[at:corr_end].decode()
    if not flags & _BATCH:
        return seq, flags, app_kind, corr, plaintext[corr_end:]
    (count,), at = _U32.unpack_from(plaintext, corr_end), corr_end + _U32.size
    bodies = []
    for _ in range(count):
        (size,), at = _U32.unpack_from(plaintext, at), at + _U32.size
        bodies.append(plaintext[at:at + size])
        at += size
    if at != len(plaintext):  # a body ran past the end, or bytes trail
        raise ValueError("batch does not fill the frame")
    return seq, flags, app_kind, corr, bodies


class SecureChannel:
    """One established channel; symmetric at both ends."""

    def __init__(
        self,
        host: "SecureHost",
        channel_id: str,
        peer: str,
        session_key: bytes,
    ) -> None:
        self.host = host
        self.channel_id = channel_id
        self.peer = peer  # authenticated peer principal name
        # Enc/MAC subkeys and the HMAC key schedule are derived once per
        # session here, not once per message.
        self._seal = SealContext(session_key)
        self._aad = channel_id.encode()
        self._prefix = frame(channel_id, b"")
        self._send_seq = 0
        self._recv_seq = 0
        self._pending: dict[str, SimEvent] = {}
        self._corr = IdGenerator(f"scorr:{channel_id}")

    # -- sending ------------------------------------------------------------

    def _send(self, flags: int, app_kind: str, corr: str, body: bytes) -> None:
        """Seal one frame (header + body) and put it on the wire."""
        self._send_seq += 1
        plaintext = _header(self._send_seq, flags, app_kind, corr) + body
        nonce = self.host.rng.randbytes(NONCE_SIZE)
        sealed = self._seal.seal(nonce, plaintext, associated_data=self._aad)
        self.host.endpoint.send(self.peer, _DATA, self._prefix + sealed)

    def send(self, app_kind: str, body: bytes) -> None:
        """One-way secure message."""
        self._send(0, app_kind, "", body)

    def send_many(self, app_kind: str, bodies: list[bytes]) -> None:
        """One-way secure *batch*: N messages, one sealed frame.

        The transfer path often emits bursts of small messages to the
        same peer (state deltas, report fragments); sealing each one
        separately pays a nonce, a keystream tail block, and a MAC per
        message.  A batch amortizes all three: one header, one
        sequence number, one MAC.  The receiver unpacks the batch and
        dispatches each body to the ``app_kind`` handler in order, so
        handler semantics match N individual :meth:`send` calls.
        Replay/tamper protection covers the whole batch (a dropped or
        reordered batch is detected exactly like a dropped message).
        """
        if not bodies:
            return
        parts = [_U32.pack(len(bodies))]
        for body in bodies:
            parts += (_U32.pack(len(body)), body)
        self._send(_BATCH, app_kind, "", b"".join(parts))
        self.host.stats.add("batches_sent")

    def call(self, app_kind: str, body: bytes, timeout: float | None = None) -> bytes:
        """Blocking secure request/response (from a simulated thread)."""
        with _obs.span("secure.call", peer=self.peer, kind=app_kind):
            corr = self._corr.next()
            event = SimEvent(self.host.kernel)
            self._pending[corr] = event
            try:
                self._send(0, app_kind, corr, body)
                result = event.wait(timeout)
            finally:
                self._pending.pop(corr, None)
            if result is None:
                raise NetworkError(
                    f"secure call {app_kind!r} to {self.peer!r} timed out"
                )
            return result

    # -- receiving ----------------------------------------------------------

    def _accept(self, sealed: bytes) -> None:
        plaintext = self._seal.open(
            sealed, associated_data=self._aad
        )  # raises IntegrityError on tampering
        seq, flags, app_kind, corr, body = _parse(plaintext)
        if seq <= self._recv_seq:
            raise ReplayError(
                f"channel {self.channel_id}: sequence {seq} replayed"
                f" (last accepted {self._recv_seq})"
            )
        self._recv_seq = seq
        if flags & _REPLY:
            event = self._pending.get(corr)
            if event is not None:
                event.set(body)
            return
        handler = self.host.app_handler(app_kind)
        if handler is None:
            self.host.stats.add("unhandled_app_kind")
            return
        if flags & _BATCH:
            # A send_many frame: each body dispatches as if sent alone.
            self.host.stats.add("batches_received")
            for item in body:
                handler(self.peer, item)
            return
        result = handler(self.peer, body)
        if result is not None and corr:
            self._send(_REPLY, app_kind, corr, result)


class SecureHost:
    """The per-node secure-channel service.

    Owns the node's key pair and certificate, runs the responder side of
    the handshake, routes sealed traffic to channels, and reaches peers
    through :meth:`call` and :meth:`send` (``connect`` underneath).
    """

    def __init__(
        self,
        endpoint: Endpoint,
        name: str,
        keys: KeyPair,
        certificate: Certificate,
        trust_anchor: TrustAnchor,
        clock: Clock,
        rng: random.Random,
    ) -> None:
        if certificate.subject != name:
            raise CredentialError(
                f"certificate names {certificate.subject!r}, host is {name!r}"
            )
        self.endpoint = endpoint
        self.kernel = endpoint.kernel
        self.name = name
        self.keys = keys
        self.certificate = certificate
        self.trust = trust_anchor
        self.clock = clock
        self.rng = rng
        self.stats = Counter()
        self._channels: dict[str, SecureChannel] = {}
        self._by_peer: dict[str, SecureChannel] = {}
        # initiator subject -> (validated certificate, nonce_a, nonce_b);
        # a newer hello from the same peer replaces the older one.
        self._pending_hello: dict[str, tuple[Certificate, bytes, bytes]] = {}
        # peer -> events of the callers waiting on the in-flight handshake
        self._connecting: dict[str, list[SimEvent]] = {}
        self._app_handlers: dict[str, AppHandler] = {}
        self._channel_ids = IdGenerator(f"chan:{name}")
        endpoint.bind(_HELLO, self._on_hello)
        endpoint.bind(_KEYEX, self._on_keyex)
        endpoint.bind(_DATA, self._on_data)

    # -- application surface ---------------------------------------------------

    def bind_app(self, app_kind: str, handler: AppHandler) -> None:
        """Register a handler for authenticated application messages."""
        if app_kind in self._app_handlers:
            raise NetworkError(f"{self.name}: app handler {app_kind!r} already bound")
        self._app_handlers[app_kind] = handler

    def app_handler(self, app_kind: str) -> AppHandler | None:
        return self._app_handlers.get(app_kind)

    def channel_to(self, peer: str) -> SecureChannel | None:
        """An already-established channel to ``peer``, if any."""
        return self._by_peer.get(peer)

    def open_channels(self) -> int:
        """Established channels currently held (telemetry gauge)."""
        return len(self._channels)

    def call(
        self, peer: str, app_kind: str, body: bytes, timeout: float | None = 30.0
    ) -> bytes:
        """One secure request/response with ``peer``; returns the reply.

        ``timeout`` bounds the handshake and the reply wait alike; any
        :class:`ReproError` forgets the cached channel before it
        propagates.  Must run in a simulated thread.
        """
        try:
            return self.connect(peer, timeout).call(app_kind, body, timeout)
        except ReproError:
            self._drop_channel(peer)
            raise

    def send(
        self, peer: str, app_kind: str, bodies: list[bytes],
        timeout: float | None = 30.0,
    ) -> None:
        """One-way secure ``bodies`` to ``peer``: one body goes as a plain
        frame, several as one :meth:`SecureChannel.send_many` batch.

        ``timeout`` bounds the handshake; failure handling is that of
        :meth:`call`.
        """
        try:
            channel = self.connect(peer, timeout)
            if len(bodies) == 1:
                channel.send(app_kind, bodies[0])
            else:
                channel.send_many(app_kind, bodies)
        except ReproError:
            self._drop_channel(peer)
            raise

    def _drop_channel(self, peer: str) -> None:
        """Forget the cached channel to ``peer`` (if any).

        A handshake still in flight is left alone: it is bounded by its
        leader's timeout, and a caller that drops after its own wait
        timed out would otherwise start a second handshake beside it.
        """
        channel = self._by_peer.pop(peer, None)
        if channel is not None:
            self._channels.pop(channel.channel_id, None)
            self.stats.add("channels_dropped")

    def reset_channels(self) -> None:
        """Forget *all* channel state (simulates a process crash).

        Session keys, sequence numbers and half-done handshakes live in
        process memory; a crashed-and-restarted server has none of them.
        """
        self._channels.clear()
        self._by_peer.clear()
        self._pending_hello.clear()
        self._connecting.clear()
        self.stats.add("channel_resets")

    # -- initiator side ------------------------------------------------------------

    def connect(self, peer: str, timeout: float | None = 30.0) -> SecureChannel:
        """Establish (or reuse) an authenticated channel to ``peer``.

        Must run in a simulated thread.  Single-flight: while a handshake
        to ``peer`` is in flight, later callers wait for it (each for at
        most its own ``timeout``) and share its channel or its failure;
        a joiner whose own wait runs out raises a :class:`NetworkError`
        marked ``joined`` in its context.  Raises
        :class:`AuthenticationError` if the peer cannot prove its
        identity, :class:`NetworkError` on a timeout.
        """
        existing = self._by_peer.get(peer)
        if existing is not None:
            return existing
        waiters = self._connecting.get(peer)
        if waiters is not None:
            return self._join_handshake(waiters, peer, timeout)
        waiters = self._connecting[peer] = []
        # Stays the outcome only if the leader dies without an exception
        # of its own (a kill): its waiters fail rather than hang.
        outcome: SecureChannel | BaseException = NetworkError(
            f"{self.name}: handshake to {peer!r} abandoned"
        )
        try:
            outcome = self._handshake(peer, timeout)
            return outcome
        except Exception as exc:
            outcome = exc
            raise
        finally:
            if self._connecting.get(peer) is waiters:
                del self._connecting[peer]
            for event in waiters:
                event.set(outcome)

    def _join_handshake(
        self, waiters: list[SimEvent], peer: str, timeout: float | None
    ) -> SecureChannel:
        self.stats.add("connects_joined")
        event = SimEvent(self.kernel)
        waiters.append(event)
        outcome = event.wait(timeout)
        if outcome is None:
            # Marked: the handshake's own failure is the leader's to
            # count, so a breaker does not count this wait again.
            raise NetworkError(
                f"{self.name}: connect to {peer!r} timed out after {timeout}s",
                joined=True,
            )
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def _handshake(self, peer: str, timeout: float | None) -> SecureChannel:
        """The initiator's side of the four-flight handshake."""
        nonce_a = self.rng.randbytes(NONCE_SIZE)
        hello = encode({"cert": self.certificate, "nonce": nonce_a})
        raw = self.endpoint.call(peer, _HELLO, hello, timeout=timeout)
        response = decode(raw)
        if "error" in response:
            raise AuthenticationError(
                f"{peer} refused handshake: {response['error']}"
            )
        peer_cert: Certificate = response["cert"]
        nonce_b: bytes = response["nonce"]
        try:
            self.trust.validate(peer_cert)
        except CredentialError as exc:
            raise AuthenticationError(f"{peer} presented a bad certificate") from exc
        if peer_cert.subject != peer:
            raise AuthenticationError(
                f"certificate names {peer_cert.subject!r}, expected {peer!r}"
            )
        transcript = canonical_digest(
            {"na": nonce_a, "nb": nonce_b, "a": self.name, "b": peer}
        )
        try:
            peer_cert.public_key.verify(transcript, response["sig"])
        except SecurityException as exc:
            raise AuthenticationError(
                f"{peer} failed to prove possession of its key"
            ) from exc
        # Key transport.
        kem_ct, shared = peer_cert.public_key.encapsulate(self.rng)
        session_key = sha256(shared, nonce_a, nonce_b)
        channel_id = self._channel_ids.next()
        keyex_transcript = canonical_digest(
            {"na": nonce_a, "nb": nonce_b, "kem": kem_ct, "a": self.name, "b": peer}
        )
        keyex = encode(
            {
                "channel": channel_id,
                "nonce_a": nonce_a,
                "kem": kem_ct,
                "sig": self.keys.private.sign(keyex_transcript),
            }
        )
        raw = self.endpoint.call(peer, _KEYEX, keyex, timeout=timeout)
        confirm = decode(raw)
        if "error" in confirm:
            raise AuthenticationError(
                f"{peer} rejected key exchange: {confirm['error']}"
            )
        if not verify_hmac(session_key, b"confirm" + nonce_a, confirm["confirm"]):
            raise AuthenticationError(f"{peer} failed key confirmation")
        channel = SecureChannel(self, channel_id, peer, session_key)
        self._register_channel(channel)
        self.stats.add("channels_initiated")
        return channel

    def _register_channel(self, channel: SecureChannel) -> None:
        self._channels[channel.channel_id] = channel
        self._by_peer[channel.peer] = channel

    # -- responder side ---------------------------------------------------------------

    def _on_hello(self, message: Message) -> bytes:
        try:
            hello = decode(message.payload)
            peer_cert: Certificate = hello["cert"]
            nonce_a: bytes = hello["nonce"]
            self.trust.validate(peer_cert)
            if peer_cert.subject != message.src:
                raise AuthenticationError("certificate/source mismatch")
        except SecurityException as exc:
            self.stats.add("handshake_rejected")
            return encode({"error": str(exc)})
        except Exception:
            self.stats.add("handshake_malformed")
            return encode({"error": "malformed hello"})
        nonce_b = self.rng.randbytes(NONCE_SIZE)
        self._pending_hello[peer_cert.subject] = (peer_cert, nonce_a, nonce_b)
        transcript = canonical_digest(
            {"na": nonce_a, "nb": nonce_b, "a": peer_cert.subject, "b": self.name}
        )
        return encode(
            {
                "cert": self.certificate,
                "nonce": nonce_b,
                "sig": self.keys.private.sign(transcript),
            }
        )

    def _on_keyex(self, message: Message) -> bytes:
        try:
            keyex = decode(message.payload)
            nonce_a = keyex["nonce_a"]
            pending = self._pending_hello.get(message.src)
            if pending is None or pending[1] != nonce_a:
                raise AuthenticationError("no matching hello")
            del self._pending_hello[message.src]
            peer_cert, _, nonce_b = pending
            kem_ct = keyex["kem"]
            transcript = canonical_digest(
                {
                    "na": nonce_a,
                    "nb": nonce_b,
                    "kem": kem_ct,
                    "a": peer_cert.subject,
                    "b": self.name,
                }
            )
            peer_cert.public_key.verify(transcript, keyex["sig"])
            shared = self.keys.private.decapsulate(kem_ct)
        except SecurityException as exc:
            self.stats.add("handshake_rejected")
            return encode({"error": str(exc)})
        except Exception:
            self.stats.add("handshake_malformed")
            return encode({"error": "malformed keyex"})
        session_key = sha256(shared, nonce_a, nonce_b)
        channel = SecureChannel(
            self, keyex["channel"], peer_cert.subject, session_key
        )
        self._register_channel(channel)
        self.stats.add("channels_accepted")
        return encode({"confirm": hmac_sha256(session_key, b"confirm" + nonce_a)})

    # -- data plane ----------------------------------------------------------------

    def _on_data(self, message: Message) -> None:
        try:
            channel_id, sealed = _unframe(message.payload)
            channel = self._channels.get(channel_id)
            if channel is None:
                self.stats.add("unknown_channel")
                return
            channel._accept(sealed)
        except IntegrityError:
            self.stats.add("rejected_tampered")
        except ReplayError:
            self.stats.add("rejected_replayed")
        except Exception:
            self.stats.add("rejected_malformed")
