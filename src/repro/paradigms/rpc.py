"""The RPC baseline: synchronous request/response over secure channels.

"The RPC model is usually synchronous, i.e., the client suspends itself
after sending a request to the server, waiting for the results of the
call" (section 1).  Arguments and results are full serialized values, so
large result sets pay their full size on every link between client and
server — the cost profile the mobile-agent paradigm attacks.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import NetworkError, ReproError
from repro.server.agent_server import AgentServer
from repro.util.serialization import decode, encode

__all__ = ["RpcService", "RpcClient"]

_APP_KIND = "rpc.call"


class RpcService:
    """Server side: a registry of named procedures."""

    def __init__(self, server: AgentServer) -> None:
        self._server = server
        self._procs: dict[str, Callable[..., Any]] = {}
        server.secure.bind_app(_APP_KIND, self._on_call)

    def register(self, name: str, procedure: Callable[..., Any]) -> None:
        if name in self._procs:
            raise NetworkError(f"procedure {name!r} already registered")
        self._procs[name] = procedure

    def _on_call(self, peer: str, body: bytes) -> bytes:
        try:
            request = decode(body)
            procedure = self._procs.get(request["proc"])
            if procedure is None:
                return encode({"error": f"no procedure {request['proc']!r}"})
            result = procedure(*request["args"])
            return encode({"result": result})
        except ReproError as exc:
            return encode({"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - report, don't kill the server
            return encode({"error": f"procedure raised: {exc!r}"})


class RpcClient:
    """Client side: blocking calls from a simulated thread."""

    def __init__(self, server: AgentServer) -> None:
        self._server = server

    def call(self, destination: str, proc: str, *args: Any,
             timeout: float | None = 120.0) -> Any:
        raw = self._server.secure.call(
            destination, _APP_KIND, encode({"proc": proc, "args": list(args)}),
            timeout,
        )
        reply = decode(raw)
        if "error" in reply:
            raise NetworkError(f"RPC {proc!r} at {destination}: {reply['error']}")
        return reply["result"]
