"""The domain database (section 5.3).

"The agent server maintains a domain database.  For each agent, it stores
several items of information including its thread-group, owner, creator,
and home-site address.  It also includes access authorization for various
server resources, usage limits and current usage.  If the agent is
currently granted access to any server resources, then information about
the binding objects is also maintained here.  This database can be
updated only by a thread executing in the server's protection domain."

The write barrier: Java enforced "server threads only" with stack
inspection; here writes are allowed from the server domain *or* from
within a ``privileged()`` block that only trusted server components (the
binding service, the hosting machinery) ever enter — the analogue of
``doPrivileged`` sections, needed because Fig. 6's upcall deliberately
runs on the *agent's* thread while executing trusted code.

Bounded memory: a residency that ends (departed, completed or
terminated) leaves a :class:`DomainTombstone` — the agent's identity,
status, charges, times and binding count, but not its protection
domain, namespace, binding records or proxies, and its thread group
only weakly.  A server
keeps the latest :data:`TOMBSTONE_RING` tombstones plus per-status
counters of every residency that ever ended, so a host that serves
agents forever holds a constant amount per finished agent.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.core.proxy import ResourceProxy
from repro.credentials.delegation import DelegatedCredentials
from repro.errors import PrivilegeError, UnknownNameError
from repro.naming.urn import URN
from repro.sandbox.domain import ProtectionDomain, current_domain
from repro.sandbox.threadgroup import ThreadGroup
from repro.util.clock import Clock

__all__ = [
    "BindingRecord",
    "DomainDatabase",
    "DomainRecord",
    "DomainTombstone",
    "TOMBSTONE_RING",
]

#: Ended residencies a server remembers in full (as tombstones); older
#: ones survive only in the per-status counters.
TOMBSTONE_RING = 256


@dataclass(slots=True)
class BindingRecord:
    """One granted resource binding (Fig. 6, step 5's bookkeeping)."""

    resource: URN
    proxy: ResourceProxy
    granted_at: float


@dataclass(slots=True)
class DomainRecord:
    """Everything the server tracks about one resident agent."""

    domain: ProtectionDomain
    agent: URN
    owner: URN
    creator: URN
    home_site: str
    arrived_at: float
    status: str = "running"  # running | departed | completed | terminated
    charges: float = 0.0
    bindings: list[BindingRecord] = field(default_factory=list)

    @property
    def domain_id(self) -> str:
        return self.domain.domain_id

    @property
    def binding_count(self) -> int:
        return len(self.bindings)

    @property
    def thread_group(self) -> ThreadGroup:
        return self.domain.thread_group


@dataclass(slots=True)
class DomainTombstone:
    """What is left of a residency once it ended.

    Status and charges stay writable: crash recovery may turn a
    crash-terminated residency into a delivered departure, and a meter
    finalized after the end (a revocation settling an in-flight call)
    still charges it.  The thread group is held weakly: it stays
    reachable only while a thread of it still runs (a departed agent's
    lingering worker), so group-wide kills still reach that thread.
    """

    domain_id: str
    agent: URN
    owner: URN
    creator: URN
    home_site: str
    arrived_at: float
    ended_at: float
    status: str
    charges: float
    binding_count: int
    group_ref: "weakref.ref[ThreadGroup]"

    @property
    def thread_group(self) -> ThreadGroup | None:
        return self.group_ref()


AnyRecord = Union[DomainRecord, DomainTombstone]

_VALID_STATUS = ("running", "departed", "completed", "terminated")


class DomainDatabase:
    """Per-server registry of resident agent domains.

    Running residencies are indexed by domain id and by agent; ended
    ones are tombstones in a ring of :data:`TOMBSTONE_RING`.  Lookups
    (:meth:`get`, :meth:`by_agent`, :meth:`records_of`) see both, and
    nothing older than the ring.
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        # Running records and ring tombstones, in admission order.
        self._records: dict[str, AnyRecord] = {}
        self._running: dict[str, DomainRecord] = {}
        self._ring: deque[str] = deque()  # ended domain ids, oldest first
        self._by_agent: dict[URN, list[str]] = {}
        self._ended = {status: 0 for status in _VALID_STATUS[1:]}
        self._tls = threading.local()

    # -- the write barrier -----------------------------------------------------

    @contextmanager
    def privileged(self) -> Iterator[None]:
        """Trusted-component write access (the doPrivileged analogue)."""
        depth = getattr(self._tls, "depth", 0)
        self._tls.depth = depth + 1
        try:
            yield
        finally:
            self._tls.depth -= 1

    def _check_write(self) -> None:
        if getattr(self._tls, "depth", 0) > 0:
            return
        domain = current_domain()
        if domain is not None and domain.is_server:
            return
        raise PrivilegeError(
            "domain database writes require the server protection domain"
        )

    # -- writes ---------------------------------------------------------------------

    def admit(
        self,
        domain: ProtectionDomain,
        credentials: DelegatedCredentials,
        home_site: str,
    ) -> DomainRecord:
        self._check_write()
        record = DomainRecord(
            domain=domain,
            agent=credentials.agent,
            owner=credentials.owner,
            creator=credentials.base.creator,
            home_site=home_site,
            arrived_at=self._clock.now(),
        )
        domain_id = domain.domain_id
        self._records[domain_id] = self._running[domain_id] = record
        self._by_agent.setdefault(record.agent, []).append(domain_id)
        return record

    def record_binding(
        self, domain_id: str, resource: URN, proxy: ResourceProxy
    ) -> None:
        """Record a grant; an ended residency only counts it."""
        self._check_write()
        record = self.get(domain_id)
        if isinstance(record, DomainTombstone):
            record.binding_count += 1
            return
        record.bindings.append(
            BindingRecord(resource=resource, proxy=proxy, granted_at=self._clock.now())
        )

    def add_charge(self, domain_id: str, amount: float) -> None:
        self._check_write()
        if amount < 0:
            raise ValueError("charges only accumulate")
        self.get(domain_id).charges += amount

    def set_status(self, domain_id: str, status: str) -> None:
        """Set a residency's status; any status but ``running`` ends it.

        Ending replaces the record with its :class:`DomainTombstone`, so
        the domain, thread group, namespace, bindings and proxies are no
        longer reachable from here.  An ended residency may change its
        final status but never runs again.
        """
        self._check_write()
        if status not in _VALID_STATUS:
            raise ValueError(f"invalid status {status!r}")
        record = self.get(domain_id)
        if isinstance(record, DomainTombstone):
            if status == "running":
                raise ValueError(f"domain {domain_id!r} has ended")
            self._ended[record.status] -= 1
            self._ended[status] += 1
            record.status = status
            return
        if status == "running":
            return
        del self._running[domain_id]
        self._records[domain_id] = DomainTombstone(
            domain_id=domain_id,
            agent=record.agent,
            owner=record.owner,
            creator=record.creator,
            home_site=record.home_site,
            arrived_at=record.arrived_at,
            ended_at=self._clock.now(),
            status=status,
            charges=record.charges,
            binding_count=len(record.bindings),
            group_ref=weakref.ref(record.domain.thread_group),
        )
        self._ended[status] += 1
        ring = self._ring
        ring.append(domain_id)
        while len(ring) > TOMBSTONE_RING:
            self._forget(ring.popleft())

    def remove(self, domain_id: str) -> AnyRecord:
        self._check_write()
        record = self.get(domain_id)
        if self._running.pop(domain_id, None) is None:
            self._ring.remove(domain_id)
        self._forget(domain_id)
        return record

    def _forget(self, domain_id: str) -> None:
        record = self._records.pop(domain_id)
        ids = self._by_agent[record.agent]
        ids.remove(domain_id)
        if not ids:
            del self._by_agent[record.agent]

    # -- reads -------------------------------------------------------------------------

    def get(self, domain_id: str) -> AnyRecord:
        try:
            return self._records[domain_id]
        except KeyError:
            raise UnknownNameError(f"no domain {domain_id!r}") from None

    def by_agent(self, agent: URN) -> AnyRecord:
        """The agent's running residency here, else its newest remembered
        one (an agent that revisits a server has one record per visit)."""
        ids = self._by_agent.get(agent)
        if not ids:
            raise UnknownNameError(f"no resident agent {agent}")
        for domain_id in reversed(ids):
            if domain_id in self._running:
                return self._running[domain_id]
        return self._records[ids[-1]]

    def records_of(self, agent: URN) -> list[AnyRecord]:
        """Every remembered record for ``agent``, in admission order —
        revisits and crash-recovery relaunches accrue one per residency."""
        return [self._records[i] for i in self._by_agent.get(agent, ())]

    def residents(self) -> list[DomainRecord]:
        return list(self._running.values())

    def records(self) -> list[AnyRecord]:
        """Running records and remembered tombstones, in admission order."""
        return list(self._records.values())

    def status_counts(self) -> dict[str, int]:
        """Residencies by status: running now, and every one that ever
        ended (including those the ring has forgotten)."""
        return {"running": len(self._running), **self._ended}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, domain_id: str) -> bool:
        return domain_id in self._records
