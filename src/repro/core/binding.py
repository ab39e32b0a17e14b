"""The resource request protocol: the six steps of Fig. 6.

    1. resource registers itself            → :meth:`BindingService.register_resource`
    2. agent requests a resource            → :meth:`BindingService.get_resource`
    3. server looks up resource in registry → inside ``get_resource``
    4. getProxy method is invoked           → the upcall, on the agent's thread
    5. proxy object is returned to agent    → binding recorded in the domain db
    6. agent accesses resource via proxy    → the caller's business

The requesting agent's identity is taken from the *current protection
domain* (the executing thread's group), never from an argument, so an
agent cannot request a proxy on another agent's behalf.

The protocol also realizes section 5.5's dynamic extension: an agent with
the ``system.resource_register`` right can carry a resource object to the
server, register it, and terminate — after which other agents bind to it
through the very same ``get_resource`` path.
"""

from __future__ import annotations

from repro.core.access_protocol import BindingContext
from repro.core.domain_db import DomainDatabase
from repro.core.registry import ResourceRegistry
from repro.core.resource import Resource, ResourceImpl
from repro.core.token import CapabilityToken
from repro.errors import PrivilegeError
from repro.naming.urn import URN
from repro.obs import runtime as _obs
from repro.sandbox.domain import ProtectionDomain, current_domain
from repro.util.audit import AuditLog
from repro.util.clock import Clock

__all__ = ["BindingService"]

class BindingService:
    """Glues registry, policy upcall and domain database together."""

    def __init__(
        self,
        registry: ResourceRegistry,
        domain_db: DomainDatabase,
        clock: Clock,
        audit: AuditLog | None = None,
        server_domain_id: str = "server",
    ) -> None:
        self.registry = registry
        self.domain_db = domain_db
        self.clock = clock
        self.audit = audit
        self.server_domain_id = server_domain_id
        # BindingContext is immutable and per-domain; binding-heavy agents
        # re-bind constantly, so contexts (and their charge-sink closures)
        # are built once per domain instead of once per get_resource.
        self._contexts: dict[str, BindingContext] = {}

    _CONTEXT_CACHE_MAX = 4096

    def _context_for(self, domain: ProtectionDomain) -> BindingContext:
        domain_id = domain.domain_id
        context = self._contexts.get(domain_id)
        if context is None:
            # Ring 0 domains bind without an audit hook: their proxies
            # carry no per-call bookkeeping at all.  Denials from rings
            # 1-2 still audit; authorization itself is ring-blind.
            ring = domain.ring
            context = BindingContext(
                domain_id=domain_id,
                clock=self.clock,
                server_domain_id=self.server_domain_id,
                audit=None if ring == 0 else self.audit,
                on_charge=self._charge_sink(domain_id),
                ring=ring,
            )
            if len(self._contexts) >= self._CONTEXT_CACHE_MAX:
                self._contexts.pop(next(iter(self._contexts)))
            self._contexts[domain_id] = context
        return context

    # -- step 1 -----------------------------------------------------------------

    def register_resource(self, resource: ResourceImpl) -> None:
        """Make a resource available to agents (mediated)."""
        with _obs.span(
            "protocol.register",
            resource=str(resource.resource_name()),
            resource_type=type(resource).__name__,
        ):
            self.registry.register(resource)

    # -- steps 2-6 ----------------------------------------------------------------

    def get_resource(
        self, name: URN, token: "CapabilityToken | bytes | None" = None
    ) -> Resource:
        """Obtain a proxy for the named resource, as the current domain.

        Returns the proxy (step 5→6); raises
        :class:`~repro.errors.UnknownNameError` for unregistered names and
        :class:`~repro.errors.AccessDeniedError` when nothing is granted.

        With ``token`` (a :class:`~repro.core.token.CapabilityToken` or
        its wire bytes, typically saved from ``proxy.capability_token()``
        before migrating), a fresh token takes the O(1) redemption path —
        no policy consult; a stale one falls back to the full ``getProxy``
        upcall transparently.
        """
        domain = current_domain()  # step 2: who is asking
        if domain is None:
            raise PrivilegeError(
                "get_resource must be called from within a protection domain"
            )
        if domain.credentials is None:
            raise PrivilegeError(
                f"domain {domain.domain_id!r} has no credentials to present"
            )
        if isinstance(token, (bytes, bytearray)):
            token = CapabilityToken.from_wire(token)
        # With tracing on, one span per Fig. 6 step (step 4 opens its own
        # span inside get_proxy; step 6 is the caller's proxy.invoke).
        resource_name = str(name)
        with _obs.span(
            "protocol.request",
            resource=resource_name,
            domain=domain.domain_id,
            agent=str(domain.credentials.agent),
            ring=f"ring{domain.ring}",
        ):
            with _obs.span("protocol.lookup", resource=resource_name):
                resource = self.registry.lookup(name)  # step 3
            context = self._context_for(domain)
            if token is None:
                proxy = resource.get_proxy(domain.credentials, context)  # step 4
            else:
                with _obs.span("protocol.redeem_token", resource=resource_name):
                    proxy = resource.redeem_token(
                        token, domain.credentials, context
                    )
            with _obs.span("protocol.record_binding", resource=resource_name):
                # step 5: record the binding (trusted code, agent's thread).
                if domain.domain_id in self.domain_db:
                    with self.domain_db.privileged():
                        self.domain_db.record_binding(
                            domain.domain_id, name, proxy
                        )
            return proxy  # step 6 happens at the caller

    def _charge_sink(self, domain_id: str):
        """Accounting flows from proxy meters into the domain database."""

        def on_charge(method: str, amount: float) -> None:
            if domain_id in self.domain_db:
                with self.domain_db.privileged():
                    self.domain_db.add_charge(domain_id, amount)

        return on_charge
