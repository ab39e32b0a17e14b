"""The Remote Evaluation baseline (Stamos & Gifford, cited in section 1).

"The client sends its own procedure code to a remote server and requests
the server to execute it and return the results."  Code travels once per
(client, server) interaction; only the (usually small) result returns.

Shipped code goes through the same safety machinery as agent code: the
AST verifier, then execution in an isolated namespace whose only trusted
bindings are the *exports* the server chose to offer.  REV is thus "an
agent that cannot move on": one hop, no persistent state, no itinerary.
Verified code is cached per service, so a repeated request is not
verified again; each request still runs in a fresh namespace.
"""

from __future__ import annotations

from typing import Any

from repro.errors import NetworkError, ReproError
from repro.sandbox.codecache import CodeVerificationCache
from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.verifier import VerifierPolicy
from repro.server.agent_server import AgentServer
from repro.util.ids import IdGenerator
from repro.util.serialization import decode, encode

__all__ = ["RevService", "RevClient"]

_APP_KIND = "rev.eval"


class RevService:
    """Server side: verify, load, execute, reply."""

    def __init__(
        self,
        server: AgentServer,
        exports: dict[str, Any],
        *,
        verifier_policy: VerifierPolicy | None = None,
    ) -> None:
        self._server = server
        self._exports = dict(exports)
        self._policy = verifier_policy or VerifierPolicy()
        # A repeated request ships the same source: verify it once.
        self.code_cache = CodeVerificationCache()
        self._ns_ids = IdGenerator(f"rev:{server.name}")
        server.secure.bind_app(_APP_KIND, self._on_eval)

    def _on_eval(self, peer: str, body: bytes) -> bytes:
        try:
            request = decode(body)
            namespace = AgentNamespace(
                self._ns_ids.next(),
                trusted=self._exports,
                policy=self._policy,
                code_cache=self.code_cache,
            )
            namespace.load(request["source"])
            function = namespace.get(request["func"])
            result = function(*request["args"])
            return encode({"result": result})
        except ReproError as exc:
            return encode({"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - shipped-code bugs stay contained
            return encode({"error": f"evaluation raised: {exc!r}"})


class RevClient:
    """Client side: ship source, get the result back."""

    def __init__(self, server: AgentServer) -> None:
        self._server = server

    def evaluate(
        self,
        destination: str,
        source: str,
        func: str,
        *args: Any,
        timeout: float | None = 120.0,
    ) -> Any:
        raw = self._server.secure.call(
            destination, _APP_KIND,
            encode({"source": source, "func": func, "args": list(args)}),
            timeout,
        )
        reply = decode(raw)
        if "error" in reply:
            raise NetworkError(f"REV at {destination}: {reply['error']}")
        return reply["result"]
