"""The resource registry (Fig. 6, steps 1 and 3).

"A resource is made available to agents by invoking the agent
environment's ``registerResource`` primitive, which stores the resource
name and a reference to the resource object in the resource registry.
Each entry also contains ownership information, which is used to prevent
any unauthorized modifications to the registry entries."

Registration is a mediated operation: the server domain may always
register; agent domains need the ``system.resource_register`` permission
(this is what makes section 5.5's *dynamic service installation by
agents* possible without opening the registry to every visitor).
Unregistration is allowed only to the entry's owning domain or the
server.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.access_protocol import AccessProtocol
from repro.core.capability import current_domain_id
from repro.core.resource import ResourceImpl
from repro.core.token import TokenAuthority
from repro.errors import (
    DuplicateNameError,
    PrivilegeError,
    SecurityException,
    UnknownNameError,
)
from repro.naming.urn import URN
from repro.sandbox.domain import current_domain
from repro.sandbox.security_manager import SecurityManager

__all__ = ["ResourceRegistry", "RegistryEntry"]


@dataclass(slots=True)
class RegistryEntry:
    resource: ResourceImpl
    owner_domain: str  # protection-domain id that registered it
    registered_at: float
    ephemeral: bool = False  # removed when the owning domain retires


class ResourceRegistry:
    """Name → resource table with ownership-gated mutation."""

    def __init__(
        self,
        security_manager: SecurityManager,
        clock,
        token_authority: TokenAuthority | None = None,
    ) -> None:
        self._secman = security_manager
        self._clock = clock
        # The hosting server's authority (a registry built without one
        # makes its own): every resource registered here, agent-carried
        # ones included, mints and redeems through it.
        if token_authority is None:
            token_authority = TokenAuthority()
        self._token_authority = token_authority
        self._entries: dict[URN, RegistryEntry] = {}
        # owner domain -> its ephemeral entry names (insertion-ordered),
        # so retiring a domain is O(its entries), not O(all entries).
        self._ephemeral_by_owner: dict[str, dict[URN, None]] = {}
        # Duck-typed ResourceSupervisor (repro.server.supervisor); when
        # set, every entry gets a guard at registration time.
        self._supervisor = None

    def attach_supervisor(self, supervisor) -> None:
        """Put every current and future entry under supervision."""
        self._supervisor = supervisor
        for entry in self._entries.values():
            supervisor.attach(entry.resource)

    def set_concurrency_cap(self, name: URN, limit: int | None) -> None:
        """Resize one resource's bulkhead (server-only; None = uncapped)."""
        self._secman.check_server_only("resource_concurrency_cap", str(name))
        if self._supervisor is None:
            raise SecurityException(
                f"no supervisor attached; cannot cap {name}"
            )
        self.entry(name)  # UnknownNameError for unregistered names
        self._supervisor.guard_of(name).bulkhead.limit = limit

    def register(self, resource: ResourceImpl) -> None:
        """Step 1 of Fig. 6.  Mediated by the security manager."""
        if not isinstance(resource, AccessProtocol):
            raise SecurityException(
                f"{type(resource).__name__} does not implement AccessProtocol;"
                f" it cannot be safely exported"
            )
        self._secman.check("resource_register", target=str(resource.resource_name()))
        owner = current_domain_id()
        assert owner is not None  # secman.check already denied unmanaged callers
        self._register(resource, owner, ephemeral=False)

    def register_for(
        self, resource: ResourceImpl, owner_domain: str, *, ephemeral: bool = True
    ) -> None:
        """Trusted-component registration on a domain's behalf.

        Used by the agent environment for agents registering *themselves*
        (mailboxes): the paper allows any agent to export itself, so this
        path skips the ``resource_register`` privilege but marks the entry
        ephemeral — it is cleaned up when the owning domain retires
        (unlike installed services, which outlive their installer,
        section 5.5).
        """
        if not isinstance(resource, AccessProtocol):
            raise SecurityException(
                f"{type(resource).__name__} does not implement AccessProtocol"
            )
        self._register(resource, owner_domain, ephemeral=ephemeral)

    def _register(
        self, resource: ResourceImpl, owner: str, *, ephemeral: bool
    ) -> None:
        name = resource.resource_name()
        if name in self._entries:
            raise DuplicateNameError(f"resource {name} is already registered")
        self._entries[name] = RegistryEntry(
            resource=resource,
            owner_domain=owner,
            registered_at=self._clock.now(),
            ephemeral=ephemeral,
        )
        if ephemeral:
            self._ephemeral_by_owner.setdefault(owner, {})[name] = None
        resource._token_authority = self._token_authority
        if self._supervisor is not None:
            self._supervisor.attach(resource)

    def remove_ephemeral_of(self, owner_domain: str) -> list[URN]:
        """Drop the ephemeral entries a retiring domain owned."""
        doomed = list(self._ephemeral_by_owner.pop(owner_domain, ()))
        for name in doomed:
            entry = self._entries.pop(name)
            if self._supervisor is not None:
                self._supervisor.detach(entry.resource)
        return doomed

    def lookup(self, name: URN) -> ResourceImpl:
        """Step 3 of Fig. 6 (reads are open; the proxy is the guard)."""
        try:
            return self._entries[name].resource
        except KeyError:
            raise UnknownNameError(f"no resource registered as {name}") from None

    def entry(self, name: URN) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(f"no resource registered as {name}") from None

    def unregister(self, name: URN) -> ResourceImpl:
        """Remove an entry; owner-or-server only."""
        entry = self.entry(name)
        domain = current_domain()
        caller = domain.domain_id if domain is not None else None
        if domain is None or not (domain.is_server or caller == entry.owner_domain):
            raise PrivilegeError(
                f"domain {caller!r} may not unregister {name}"
                f" (owned by {entry.owner_domain!r})"
            )
        del self._entries[name]
        if entry.ephemeral:
            owned = self._ephemeral_by_owner.get(entry.owner_domain)
            if owned is not None:
                owned.pop(name, None)
                if not owned:
                    del self._ephemeral_by_owner[entry.owner_domain]
        if self._supervisor is not None:
            self._supervisor.detach(entry.resource)
        return entry.resource

    def names(self) -> list[URN]:
        return sorted(self._entries, key=str)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: URN) -> bool:
        return name in self._entries
