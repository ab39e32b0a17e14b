"""Authenticated, private, replay-protected channels between hosts.

Implements the section-2 requirements end-to-end:

* **Mutual authentication** — a four-flight handshake in which both sides
  present CA-issued certificates and prove possession of their private
  keys (the responder by deriving the KEM session key, the initiator by
  signing the key-exchange transcript).
* **Privacy + integrity** — every data payload is sealed with the AEAD
  cipher (:func:`repro.crypto.cipher.seal_payload`); tampering raises
  :class:`~repro.errors.IntegrityError` at the receiver and the message
  is discarded (and counted).
* **Replay protection** — strictly increasing sequence numbers inside the
  sealed envelope; duplicates are rejected.

Handshake transcript (all timing/bytes go over the plain transport, so
adversaries can attack every flight)::

    A -> B  sec.hello   {cert_A, nonce_A}
    B -> A  (reply)     {cert_B, nonce_B, sig_B(nonce_A, nonce_B, A, B)}
    A -> B  sec.keyex   {channel, kem_ct, sig_A(nonce_A, nonce_B, kem_ct, A, B)}
    B -> A  (reply)     {confirm = HMAC(K, "confirm" || nonce_A)}

with ``K = SHA256(kem_shared || nonce_A || nonce_B)``.
"""

from __future__ import annotations

import random
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
    SecurityException,
)
from repro.net.message import Message
from repro.net.transport import Endpoint
from repro.obs import runtime as _obs
from repro.sim.monitor import Counter
from repro.util.clock import Clock
from repro.util.ids import IdGenerator
from repro.util.serialization import canonical_digest, decode, encode

__all__ = ["SecureHost", "SecureChannel"]

AppHandler = Callable[[str, bytes], "bytes | None"]
# app handler signature: (peer_name, body) -> optional reply body

_HELLO = "sec.hello"
_KEYEX = "sec.keyex"
_DATA = "sec.data"


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
        self._key = session_key
        # Enc/MAC subkeys and the HMAC key schedule are derived once per
        # session here, not once per message (the old seal_payload path
        # re-derived both for every frame).
        self._seal = SealContext(session_key)
        self._aad = channel_id.encode()
        self._send_seq = 0
        self._recv_seq = 0
        self._pending: dict[str, object] = {}
        self._corr = IdGenerator(f"scorr:{channel_id}")

    # -- sending ------------------------------------------------------------

    def _envelope(
        self, app_kind: str, body: bytes, corr: str, is_reply: bool
    ) -> bytes:
        self._send_seq += 1
        plaintext = encode(
            {
                "seq": self._send_seq,
                "app_kind": app_kind,
                "corr": corr,
                "is_reply": is_reply,
                "body": body,
            }
        )
        nonce = self.host.rng.randbytes(NONCE_SIZE)
        return self._seal.seal(nonce, plaintext, associated_data=self._aad)

    def send(self, app_kind: str, body: bytes) -> None:
        """One-way secure message."""
        sealed = self._envelope(app_kind, body, corr="", is_reply=False)
        self.host.endpoint.send(self.peer_node(), _DATA, self._tag(sealed))

    def send_many(self, app_kind: str, bodies: list[bytes]) -> None:
        """One-way secure *batch*: N messages, one sealed frame.

        The transfer path often emits bursts of small messages to the
        same peer (state deltas, report fragments); sealing each one
        separately pays a nonce, a keystream tail block, and a MAC per
        message.  A batch amortizes all three: one envelope, one
        sequence number, one MAC.  The receiver unpacks the batch and
        dispatches each body to the ``app_kind`` handler in order, so
        handler semantics match N individual :meth:`send` calls.
        Replay/tamper protection covers the whole batch (a dropped or
        reordered batch is detected exactly like a dropped message).
        """
        if not bodies:
            return
        self._send_seq += 1
        plaintext = encode(
            {
                "seq": self._send_seq,
                "app_kind": app_kind,
                "corr": "",
                "is_reply": False,
                "batch": list(bodies),
            }
        )
        nonce = self.host.rng.randbytes(NONCE_SIZE)
        sealed = self._seal.seal(nonce, plaintext, associated_data=self._aad)
        self.host.endpoint.send(self.peer_node(), _DATA, self._tag(sealed))
        self.host.stats.add("batches_sent")

    def call(self, app_kind: str, body: bytes, timeout: float | None = None) -> bytes:
        """Blocking secure request/response (from a simulated thread)."""
        from repro.sim.sync import SimEvent

        with _obs.span("secure.call", peer=self.peer, kind=app_kind):
            corr = self._corr.next()
            event = SimEvent(self.host.kernel)
            self._pending[corr] = event
            timer = None
            try:
                if timeout is not None:
                    timer = self.host.kernel.schedule(timeout, event.set, None)
                sealed = self._envelope(
                    app_kind, body, corr=corr, is_reply=False
                )
                self.host.endpoint.send(
                    self.peer_node(), _DATA, self._tag(sealed)
                )
                result = event.wait()
            finally:
                # Cancel on every exit so abandoned calls leave no stale timers.
                self._pending.pop(corr, None)
                if timer is not None:
                    timer.cancel()
            if result is None:
                raise NetworkError(
                    f"secure call {app_kind!r} to {self.peer!r} timed out"
                )
            return result

    def _reply(self, app_kind: str, body: bytes, corr: str) -> None:
        sealed = self._envelope(app_kind, body, corr=corr, is_reply=True)
        self.host.endpoint.send(self.peer_node(), _DATA, self._tag(sealed))

    def _tag(self, sealed: bytes) -> bytes:
        """Prefix the channel id so the receiving host can route it."""
        return encode({"channel": self.channel_id, "sealed": sealed})

    def peer_node(self) -> str:
        return self.peer

    # -- receiving ----------------------------------------------------------

    def _accept(self, sealed: bytes) -> None:
        plaintext = self._seal.open(
            sealed, associated_data=self._aad
        )  # raises IntegrityError on tampering
        envelope = decode(plaintext)
        seq = envelope["seq"]
        if seq <= self._recv_seq:
            raise ReplayError(
                f"channel {self.channel_id}: sequence {seq} replayed"
                f" (last accepted {self._recv_seq})"
            )
        self._recv_seq = seq
        if envelope["is_reply"]:
            event = self._pending.get(envelope["corr"])
            if event is not None:
                event.set(envelope["body"])
            return
        handler = self.host.app_handler(envelope["app_kind"])
        if handler is None:
            self.host.stats.add("unhandled_app_kind")
            return
        batch = envelope.get("batch")
        if batch is not None:
            # A send_many frame: each body dispatches as if sent alone.
            self.host.stats.add("batches_received")
            for body in batch:
                handler(self.peer, body)
            return
        result = handler(self.peer, envelope["body"])
        if result is not None and envelope["corr"]:
            self._reply(envelope["app_kind"], result, envelope["corr"])


class SecureHost:
    """The per-node secure-channel service.

    Owns the node's key pair and certificate, runs the responder side of
    the handshake, routes sealed traffic to channels, and exposes
    ``connect`` for the initiator side.
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
        # nonce_a -> (validated initiator certificate, nonce_b)
        self._pending_hello: dict[bytes, tuple[Certificate, bytes]] = {}
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

    def drop_channel(self, peer: str) -> bool:
        """Forget the cached channel to ``peer`` (if any).

        The next :meth:`connect` runs a fresh handshake.  Used by retry
        loops when a call timed out: the peer may have crashed and
        restarted, in which case its end of the old channel no longer
        exists and every frame we send on it is discarded unread.
        """
        channel = self._by_peer.pop(peer, None)
        if channel is None:
            return False
        self._channels.pop(channel.channel_id, None)
        self.stats.add("channels_dropped")
        return True

    def reset_channels(self) -> None:
        """Forget *all* channel state (simulates a process crash).

        Session keys, sequence numbers and half-done handshakes live in
        process memory; a crashed-and-restarted server has none of them.
        """
        self._channels.clear()
        self._by_peer.clear()
        self._pending_hello.clear()
        self.stats.add("channel_resets")

    # -- initiator side ------------------------------------------------------------

    def connect(self, peer: str, timeout: float | None = 30.0) -> SecureChannel:
        """Establish (or reuse) an authenticated channel to ``peer``.

        Must run in a simulated thread.  Raises
        :class:`AuthenticationError` if the peer cannot prove its identity.
        """
        existing = self._by_peer.get(peer)
        if existing is not None:
            return existing
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
        self._pending_hello[nonce_a] = (peer_cert, nonce_b)
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
            pending = self._pending_hello.pop(nonce_a, None)
            if pending is None:
                raise AuthenticationError("no matching hello")
            peer_cert, nonce_b = pending
            if peer_cert.subject != message.src:
                raise AuthenticationError("keyex source mismatch")
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
            frame = decode(message.payload)
            channel = self._channels.get(frame["channel"])
            if channel is None:
                self.stats.add("unknown_channel")
                return
            channel._accept(frame["sealed"])
        except IntegrityError:
            self.stats.add("rejected_tampered")
        except ReplayError:
            self.stats.add("rejected_replayed")
        except Exception:
            self.stats.add("rejected_malformed")
