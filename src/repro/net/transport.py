"""Named endpoints: typed handlers, one-way sends, blocking calls.

An :class:`Endpoint` is a node's mailbox.  Handlers are registered per
message *kind* and run in kernel context (no blocking); a handler that
returns bytes generates an immediate reply.  Simulated threads get a
synchronous ``call`` with correlation ids and timeouts — this is the
primitive both the RPC baseline and the agent transfer protocol are built
on.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ChannelClosedError, NetworkError
from repro.net.message import Message
from repro.net.network import Network
from repro.obs import runtime as _obs
from repro.sim.monitor import Counter
from repro.sim.sync import SimEvent
from repro.util.ids import IdGenerator

__all__ = ["Endpoint"]

Handler = Callable[[Message], "bytes | None"]

_TIMEOUT = object()


class Endpoint:
    """One node's transport endpoint."""

    def __init__(self, network: Network, name: str) -> None:
        self.network = network
        self.kernel = network.kernel
        self.name = name
        self._handlers: dict[str, Handler] = {}
        self._pending: dict[str, SimEvent] = {}
        self._corr_ids = IdGenerator(f"corr:{name}")
        self._closed = False
        self.stats = Counter()
        network.attach(name, self._on_message)

    # -- handler registration --------------------------------------------------

    def bind(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` for messages of ``kind``.

        The handler runs in kernel context.  If it returns bytes, they are
        sent back as the reply to the originating call.
        """
        if kind in self._handlers:
            raise NetworkError(f"{self.name}: handler for {kind!r} already bound")
        self._handlers[kind] = handler

    def unbind(self, kind: str) -> None:
        self._handlers.pop(kind, None)

    # -- sending -----------------------------------------------------------------

    def send(self, dst: str, kind: str, payload: bytes) -> None:
        """One-way message."""
        self._check_open()
        self.network.send(
            Message(src=self.name, dst=dst, kind=kind, payload=payload)
        )

    def call(
        self, dst: str, kind: str, payload: bytes, timeout: float | None = None
    ) -> bytes:
        """Blocking request/response; must run in a simulated thread."""
        with _obs.span("rpc.call", src=self.name, dst=dst, kind=kind):
            self._check_open()
            corr_id = self._corr_ids.next()
            event = SimEvent(self.kernel)
            self._pending[corr_id] = event
            try:
                self.network.send(
                    Message(
                        src=self.name, dst=dst, kind=kind, payload=payload,
                        corr_id=corr_id,
                    )
                )
                result = event.wait(timeout, _TIMEOUT)
            finally:
                self._pending.pop(corr_id, None)
            if result is _TIMEOUT:
                self.stats.add("call_timeouts")
                raise NetworkError(
                    f"{self.name}: call {kind!r} to {dst!r} timed out"
                    f" after {timeout}s"
                )
            assert isinstance(result, Message)
            return result.payload

    def reply(self, request: Message, payload: bytes) -> None:
        """Send a (possibly deferred) reply to ``request``."""
        self._check_open()
        self.network.send(
            Message(
                src=self.name,
                dst=request.src,
                kind=request.kind,
                payload=payload,
                corr_id=request.corr_id,
                is_reply=True,
            )
        )

    def close(self) -> None:
        """Refuse all further traffic (simulates a crashed server)."""
        self._closed = True

    def open(self) -> None:
        """Accept traffic again (simulates a restarted server process).

        Re-attaches to the network for explicitness; a restarted process
        binds its port anew.
        """
        self._closed = False
        self.network.attach(self.name, self._on_message)

    @property
    def is_open(self) -> bool:
        return not self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ChannelClosedError(f"endpoint {self.name!r} is closed")

    # -- receiving ---------------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        if self._closed:
            self.stats.add("dropped_closed")
            return
        if message.is_reply:
            event = self._pending.get(message.corr_id)
            if event is None:
                # Late (the caller timed out and moved on) or replayed.
                self.stats.add("replies_unmatched")
                return
            if event.is_set:
                # A duplicate arriving before the caller resumed.
                self.stats.add("replies_duplicate")
                return
            event.set(message)
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            return  # unhandled kinds are silently discarded, like a closed port
        result = handler(message)
        if result is not None and message.corr_id:
            self.reply(message, result)
