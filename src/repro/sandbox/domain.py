"""Protection domains: one per agent, one for the server itself.

A domain ties together the three per-agent isolation artifacts of
section 5.3 — the thread group (identification), the namespace (code
isolation), and the agent's validated credentials (authorization input) —
under a single id that the domain database and audit log key on.

Each domain also carries its protection **ring** — the trust tier the
admission policy assigned on arrival (``repro.core.token``: ring 0
trusted launcher, ring 1 verified, ring 2 untrusted).  The ring selects
how much per-invocation bookkeeping the domain's proxies pay; it never
affects *whether* an access is authorized.  The default is ring 1 for
every kind of domain, so deployments without an explicit ring policy
behave exactly as before rings existed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.threadgroup import ThreadGroup, current_group

if TYPE_CHECKING:  # pragma: no cover
    from repro.credentials.delegation import DelegatedCredentials

__all__ = [
    "ProtectionDomain",
    "current_domain",
    "RING_TRUSTED",
    "RING_VERIFIED",
    "RING_UNTRUSTED",
]

# Protection rings (re-exported by repro.core.token).  They are defined at
# this layer so the sandbox never imports repro.core, which imports it.
RING_TRUSTED = 0  # the launcher's own agents: minimal bookkeeping
RING_VERIFIED = 1  # verified credentials + trusted code: standard checks
RING_UNTRUSTED = 2  # carries code / unknown provenance: full mediation


class ProtectionDomain:
    """The unit of isolation and authorization on a server."""

    __slots__ = (
        "domain_id", "kind", "thread_group", "namespace", "credentials", "ring",
    )

    def __init__(
        self,
        domain_id: str,
        kind: str,  # "server" | "agent"
        thread_group: ThreadGroup,
        namespace: AgentNamespace | None = None,
        credentials: "DelegatedCredentials | None" = None,
        ring: int = RING_VERIFIED,
    ) -> None:
        if kind not in ("server", "agent"):
            raise ValueError(f"domain kind must be 'server' or 'agent', not {kind!r}")
        self.domain_id = domain_id
        self.kind = kind
        self.thread_group = thread_group
        self.namespace = namespace
        self.credentials = credentials
        self.ring = ring
        thread_group.domain = self

    @property
    def is_server(self) -> bool:
        return self.kind == "server"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProtectionDomain({self.domain_id!r}, {self.kind})"


def current_domain() -> ProtectionDomain | None:
    """The protection domain of the currently executing code.

    Walks up the thread-group hierarchy so that a child thread group an
    agent was allowed to create still maps back to the agent's domain.
    """
    group = current_group()
    while group is not None:
        if group.domain is not None:
            return group.domain
        group = group.parent
    return None
