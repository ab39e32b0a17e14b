"""The name service as a network service.

In Ajanta the name registry is itself a server on the network; agents and
agent servers reach it through the same authenticated channels as
everything else.  :class:`NameServiceHost` exports an authoritative
:class:`~repro.naming.registry.NameService` over a
:class:`~repro.net.secure_channel.SecureHost`;
:class:`RemoteNameService` is the client stub other nodes hold.

Blocking semantics: client operations are secure calls, so they must run
in a simulated thread (agent threads qualify — `env.locate` works
naturally).  For the one place the hosting machinery updates the registry
from kernel context — recording an arrival — the stub offers
``relocate_async``, which runs the update in a short-lived thread and
reports failures to a callback instead of blocking the arrival path.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import NamingError, NetworkError, ReproError
from repro.naming.registry import (
    NameRecord,
    NameService,
    error_reply,
    raise_reply_error,
)
from repro.naming.urn import URN
from repro.net.secure_channel import SecureHost
from repro.sim.kernel import Kernel
from repro.sim.monitor import Counter
from repro.sim.threads import SimThread
from repro.util.retry import RetryPolicy, call_with_retries
from repro.util.serialization import decode, encode

__all__ = ["NameServiceHost", "RemoteNameService", "fire_and_forget_relocate"]

_APP_KIND = "ns.op"


def fire_and_forget_relocate(
    service: Any,
    kernel: Kernel,
    name: URN,
    token: str,
    new_location: str,
    *,
    on_fail: Callable[[], None] | None = None,
    audit: Any | None = None,
    stats: Counter | None = None,
) -> None:
    """Run ``service.relocate`` in a short-lived thread; account failures.

    The arrival path runs in kernel context and must not block on the
    network, but a relocation that silently never lands strands every
    subsequent ``env.locate`` of the agent.  A failure therefore (a)
    bumps ``relocate_failed`` on ``stats`` (the stub's counters, scraped
    as ``ns_client.*`` on its server), (b) writes an audit record when
    the hosting server's ``audit`` log is passed, and (c) only then
    invokes the ``on_fail`` callback (the server counts
    ``ns_relocate_failed`` there).
    """

    def body() -> None:
        try:
            service.relocate(name, token, new_location)
        except (NamingError, NetworkError, ReproError) as exc:
            if stats is not None:
                stats.add("relocate_failed")
            if audit is not None:
                audit.record(
                    str(name), "ns.relocate_async", new_location, False,
                    f"lost relocation to {new_location}: "
                    f"{type(exc).__name__}: {exc}",
                )
            if on_fail is not None:
                on_fail()

    SimThread(kernel, body, f"ns-relocate:{name.local}").start()


class NameServiceHost:
    """Server side: the authoritative registry behind secure channels."""

    def __init__(self, secure_host: SecureHost, service: NameService | None = None):
        self.service = service if service is not None else NameService()
        self._host = secure_host
        secure_host.bind_app(_APP_KIND, self._on_op)

    def _on_op(self, peer: str, body: bytes) -> bytes:
        try:
            request = decode(body)
            op = request["op"]
            if op == "register":
                token = self.service.register(
                    request["name"], request["location"],
                    request.get("attributes") or {},
                )
                return encode({"ok": token})
            if op == "lookup":
                record = self.service.lookup(request["name"])
                return encode({
                    "ok": {
                        "name": record.name,
                        "location": record.location,
                        "attributes": record.attributes,
                    }
                })
            if op == "contains":
                return encode({"ok": self.service.contains(request["name"])})
            if op == "relocate":
                self.service.relocate(
                    request["name"], request["token"], request["location"]
                )
                return encode({"ok": True})
            if op == "unregister":
                self.service.unregister(request["name"], request["token"])
                return encode({"ok": True})
            raise NamingError(f"unknown op {op!r}")
        except ReproError as exc:
            return error_reply(exc)


class RemoteNameService:
    """Client stub: the NameService interface over the network.

    All methods except ``relocate_async`` block and therefore require a
    simulated-thread context.
    """

    def __init__(self, secure_host: SecureHost, registry_node: str,
                 timeout: float = 30.0,
                 retry: RetryPolicy | None = None,
                 retry_rng: Any | None = None) -> None:
        self._host = secure_host
        self._registry_node = registry_node
        self._timeout = timeout
        # Idempotent operations (lookup / contains / relocate) retry on
        # network failure; register and unregister do NOT — a retransmit
        # of a register whose reply was lost would mint a second token.
        self._retry = retry or RetryPolicy(attempts=3, base_delay=0.2,
                                           max_delay=5.0)
        self._retry_rng = retry_rng
        self.stats = Counter()

    # -- plumbing ------------------------------------------------------------

    def _call(self, request: dict) -> Any:
        reply = decode(self._host.call(
            self._registry_node, _APP_KIND, encode(request), self._timeout
        ))
        raise_reply_error(reply)
        return reply["ok"]

    def _call_idempotent(self, request: dict) -> Any:
        def attempt(_: int) -> Any:
            return self._call(request)

        def note_retry(attempt_no: int, exc: BaseException) -> None:
            self.stats.add("retries")

        return call_with_retries(
            attempt,
            kernel=self._host.kernel,
            policy=self._retry,
            rng=self._retry_rng,
            retry_on=(NetworkError,),
            on_retry=note_retry,
            describe=f"ns.{request['op']} at {self._registry_node}",
        )

    # -- the NameService interface --------------------------------------------

    def register(self, name: URN, location: str,
                 attributes: dict[str, Any] | None = None) -> str:
        return self._call({
            "op": "register", "name": name, "location": location,
            "attributes": dict(attributes or {}),
        })

    def lookup(self, name: URN) -> NameRecord:
        data = self._call_idempotent({"op": "lookup", "name": name})
        return NameRecord(name=data["name"], location=data["location"],
                          attributes=data["attributes"])

    def contains(self, name: URN) -> bool:
        return self._call_idempotent({"op": "contains", "name": name})

    def relocate(self, name: URN, token: str, new_location: str) -> None:
        self._call_idempotent({
            "op": "relocate", "name": name, "token": token,
            "location": new_location,
        })

    def unregister(self, name: URN, token: str) -> None:
        self._call({"op": "unregister", "name": name, "token": token})

    # -- kernel-context-safe update ----------------------------------------------

    def relocate_async(
        self,
        kernel: Kernel,
        name: URN,
        token: str,
        new_location: str,
        on_fail: Callable[[], None] | None = None,
        audit: Any | None = None,
    ) -> None:
        """Fire-and-forget relocation from kernel context."""
        fire_and_forget_relocate(
            self, kernel, name, token, new_location,
            on_fail=on_fail, audit=audit, stats=self.stats,
        )
