"""Resource supervision: leases, bulkheads, quarantine, runaway kills.

The paper's proxy mechanism assumes resources stay healthy and agents
behave; its expiration/revocation extensions (section 5.5) are the hooks
for the opposite case.  This module is the server-side layer that pulls
those hooks when things go wrong, so one wedged resource method or one
runaway visiting agent degrades a corner of the server instead of
wedging all of it:

* **Leases** — every grant's expiration time becomes a renewable lease.
  Holders renew through the proxy (:meth:`ResourceProxy.renew_lease`);
  a lapsed lease is automatic revocation, and
  :meth:`ResourceSupervisor.sweep_leases` (run on server restart)
  re-validates unexpired leases from the domain database and revokes
  expired ones.
* **Bulkheads + load shedding** — per-resource concurrency caps
  (:class:`Bulkhead`) and per-domain admission/in-flight quotas.  Over
  the limit, invocations fail fast with
  :class:`~repro.errors.ResourceOverloadedError` instead of queueing.
* **Health tracking + quarantine** — :class:`ResourceHealth` scores each
  resource from proxy-invocation outcomes (errors, deadline overruns,
  injected faults) on a :class:`~repro.util.retry.CircuitBreaker`:
  ``healthy → degraded → quarantined``, with a single-probe recovery
  path once the breaker half-opens.
* **Runaway containment** — a watchdog arms a kernel timer per
  supervised invocation.  Deadline overruns interrupt the offending
  thread; enough strikes (or a blown metered budget) kill the agent's
  whole thread group, revoke its proxies through the per-domain
  revocation index, finalize its meters and audit the kill.

Everything keys off the virtual clock and plain counters, so supervised
runs stay deterministic under seeded stress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import (
    InvocationDeadlineError,
    ReproError,
    ResourceFaultError,
    ResourceOverloadedError,
    ResourceQuarantinedError,
)
from repro.obs import runtime as _obs
from repro.sandbox.threadgroup import enter_group
from repro.sim.monitor import Counter
from repro.util.retry import CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.proxy import ResourceProxy
    from repro.core.resource import ResourceImpl
    from repro.server.agent_server import AgentServer
    from repro.sim.threads import SimThread

__all__ = [
    "SupervisorConfig",
    "Bulkhead",
    "ResourceFault",
    "ResourceHealth",
    "ResourceGuard",
    "ResourceSupervisor",
]


@dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """The supervision layer's knobs (``None`` disables a mechanism)."""

    #: Default lease on grants whose policy rule gives no lifetime.
    lease_duration: float | None = 600.0
    #: Per-invocation wall (virtual) deadline enforced by the watchdog.
    invoke_deadline: float | None = 30.0
    #: Default per-resource concurrent-invocation cap (bulkhead width).
    resource_concurrency: int | None = 64
    #: Per-domain concurrent supervised invocations, across resources.
    domain_inflight_quota: int | None = 16
    #: Per-domain live grants of one resource (admission quota).
    domain_grant_quota: int | None = None
    #: Consecutive failures before a resource reads as "degraded".
    degraded_after: int = 2
    #: Consecutive failures before quarantine (breaker threshold).
    quarantine_after: int = 5
    #: Quarantine dwell before a single recovery probe is admitted.
    probe_after: float = 30.0
    #: Deadline overruns before an agent is killed as a runaway.
    runaway_strikes: int = 3
    #: Accrued charges that mark a metered agent as a runaway.
    runaway_budget: float | None = None


class Bulkhead:
    """Per-resource concurrency cap: admit or shed, never queue."""

    __slots__ = ("resource", "limit", "in_flight", "peak", "shed")

    def __init__(self, resource: str, limit: int | None) -> None:
        self.resource = resource
        self.limit = limit
        self.in_flight = 0
        self.peak = 0
        self.shed = 0

    def try_acquire(self) -> bool:
        if self.limit is not None and self.in_flight >= self.limit:
            self.shed += 1
            return False
        self.in_flight += 1
        if self.in_flight > self.peak:
            self.peak = self.in_flight
        return True

    def release(self) -> None:
        if self.in_flight > 0:
            self.in_flight -= 1


@dataclass(slots=True)
class ResourceFault:
    """An injected degradation window on one resource (see
    :meth:`~repro.net.faults.FaultInjector.resource_fault`)."""

    mode: str  # "error" | "wedge"
    method: str | None = None  # None = every method
    wedge_for: float = 60.0


class ResourceHealth:
    """One resource's health state machine on a circuit breaker.

    ``healthy`` — breaker closed, few consecutive failures.
    ``degraded`` — breaker still closed but consecutive failures reached
    ``degraded_after`` (an early-warning state: calls still pass).
    ``quarantined`` — breaker open (or half-open): calls fail fast,
    except a single in-flight recovery probe once ``probe_after``
    virtual seconds have passed.  A successful probe closes the breaker.
    """

    __slots__ = ("resource", "breaker", "_degraded_after", "_probing",
                 "faults", "_last_state", "_on_transition")

    def __init__(
        self,
        resource: str,
        clock,
        *,
        degraded_after: int,
        quarantine_after: int,
        probe_after: float,
        on_transition=None,
    ) -> None:
        self.resource = resource
        self.breaker = CircuitBreaker(
            clock,
            failure_threshold=quarantine_after,
            reset_timeout=probe_after,
        )
        self._degraded_after = degraded_after
        self._probing = False
        self.faults: list[ResourceFault] = []
        self._last_state = "healthy"
        self._on_transition = on_transition

    @property
    def state(self) -> str:
        if self.breaker.state in ("open", "half_open"):
            return "quarantined"
        if self.breaker.consecutive_failures >= self._degraded_after:
            return "degraded"
        return "healthy"

    def admit(self) -> tuple[bool, bool]:
        """``(admitted, is_probe)`` for a would-be invocation.

        While quarantined, only one probe may be in flight at a time
        (concurrent callers during the half-open window fail fast rather
        than stampeding a barely recovered resource).
        """
        bstate = self.breaker.state
        if bstate == "closed":
            return True, False
        if bstate == "half_open" and not self._probing:
            self._probing = True
            return True, True
        return False, False

    def record_success(self, *, probe: bool = False) -> None:
        if probe:
            self._probing = False
        self.breaker.record_success()
        self._note_transition()

    def record_failure(self, *, probe: bool = False) -> None:
        if probe:
            self._probing = False
        self.breaker.record_failure()
        self._note_transition()

    def _note_transition(self) -> None:
        state = self.state
        if state != self._last_state:
            old, self._last_state = self._last_state, state
            if self._on_transition is not None:
                self._on_transition(self.resource, old, state)

    # -- injected faults ----------------------------------------------------

    def active_fault(self, method: str) -> ResourceFault | None:
        for fault in self.faults:
            if fault.method is None or fault.method == method:
                return fault
        return None


class _InvocationTicket:
    """Book-keeping for one supervised invocation in flight."""

    __slots__ = ("guard", "domain_id", "method", "thread", "started",
                 "deadline_handle", "epoch", "done", "expired", "probe")

    def __init__(
        self,
        guard: "ResourceGuard",
        domain_id: str,
        method: str,
        thread: "SimThread | None",
        started: float,
        epoch: int,
        probe: bool,
    ) -> None:
        self.guard = guard
        self.domain_id = domain_id
        self.method = method
        self.thread = thread
        self.started = started
        self.deadline_handle = None
        self.epoch = epoch
        self.done = False
        self.expired = False  # the watchdog fired on this invocation
        self.probe = probe


class _DomainWatch:
    """Per-domain runaway accounting (in-flight count + strike record)."""

    __slots__ = ("in_flight", "strikes", "killed")

    def __init__(self) -> None:
        self.in_flight = 0
        self.strikes = 0
        self.killed = False


class ResourceGuard:
    """The per-resource object supervised proxies report through.

    Installed on the resource at registration; proxies issued afterwards
    carry a reference and route invocations through
    :meth:`begin`/:meth:`finish`.  Lives in ``server/`` so ``core`` has
    no import edge back to the supervisor — proxies talk to it
    duck-typed.
    """

    __slots__ = ("supervisor", "resource", "health", "bulkhead")

    def __init__(
        self, supervisor: "ResourceSupervisor", resource: str
    ) -> None:
        self.supervisor = supervisor
        self.resource = resource
        config = supervisor.config
        self.health = ResourceHealth(
            resource,
            supervisor.clock,
            degraded_after=config.degraded_after,
            quarantine_after=config.quarantine_after,
            probe_after=config.probe_after,
            on_transition=supervisor._on_health_transition,
        )
        self.bulkhead = Bulkhead(resource, config.resource_concurrency)

    # -- lease defaults -----------------------------------------------------

    @property
    def lease_duration(self) -> float | None:
        return self.supervisor.config.lease_duration

    # -- admission (grant issue time) ---------------------------------------

    def admit_grant(self, domain_id: str, held: int) -> None:
        """Per-domain admission quota check at proxy-issue time."""
        quota = self.supervisor.config.domain_grant_quota
        if quota is not None and held >= quota:
            self.supervisor.stats.add("grants_shed")
            raise ResourceOverloadedError(
                f"domain {domain_id} already holds {held} grants of"
                f" {self.resource} (quota {quota})",
                resource=self.resource,
                domain=domain_id,
                limit=quota,
            )

    # -- the invocation path ------------------------------------------------

    def begin(self, domain_id: str, method: str) -> _InvocationTicket:
        """Admit one invocation; raises the typed shed/quarantine errors.

        Runs on the invoking agent's thread, after the proxy's security
        pre-check (security still decides first; supervision only sheds
        calls that were authorized).
        """
        supervisor = self.supervisor
        config = supervisor.config
        watch = supervisor.watch(domain_id)
        quota = config.domain_inflight_quota
        if quota is not None and watch.in_flight >= quota:
            supervisor.stats.add("invocations_shed_domain")
            self._note_shed(method, "domain_quota")
            raise ResourceOverloadedError(
                f"domain {domain_id} has {watch.in_flight} invocations in"
                f" flight (quota {quota})",
                resource=self.resource,
                domain=domain_id,
                method=method,
                limit=quota,
            )
        admitted, probe = self.health.admit()
        if not admitted:
            supervisor.stats.add("invocations_shed_quarantine")
            self._note_shed(method, "quarantined")
            raise ResourceQuarantinedError(
                f"{self.resource} is quarantined (state"
                f" {self.health.state}, {self.health.breaker.consecutive_failures}"
                f" consecutive failures)",
                resource=self.resource,
                domain=domain_id,
                method=method,
            )
        if not self.bulkhead.try_acquire():
            if probe:
                self.health._probing = False
            supervisor.stats.add("invocations_shed_overload")
            self._note_shed(method, "bulkhead")
            raise ResourceOverloadedError(
                f"{self.resource} is at its concurrency cap"
                f" ({self.bulkhead.limit})",
                resource=self.resource,
                domain=domain_id,
                method=method,
                limit=self.bulkhead.limit,
            )
        watch.in_flight += 1
        ticket = _InvocationTicket(
            self,
            domain_id,
            method,
            supervisor.kernel.current_thread(),
            supervisor.clock.now(),
            supervisor.epoch,
            probe,
        )
        deadline = config.invoke_deadline
        if deadline is not None and ticket.thread is not None:
            ticket.deadline_handle = supervisor.kernel.schedule(
                deadline, supervisor._on_deadline, ticket
            )
        return ticket

    def fault_gate(self, ticket: _InvocationTicket) -> None:
        """Apply any injected resource fault to this invocation.

        ``error`` mode fails immediately; ``wedge`` mode parks the
        invoking thread for the fault's wedge time first — long enough
        that the watchdog deadline (if armed) fires mid-wedge, which is
        exactly the degraded-resource signal the health tracker scores.
        """
        fault = self.health.active_fault(ticket.method)
        if fault is None:
            return
        if fault.mode == "wedge" and ticket.thread is not None:
            ticket.thread.sleep(fault.wedge_for)
        raise ResourceFaultError(
            f"injected {fault.mode} fault on {self.resource}.{ticket.method}",
            resource=self.resource,
            domain=ticket.domain_id,
            method=ticket.method,
            mode=fault.mode,
        )

    def finish(self, ticket: _InvocationTicket, error: BaseException | None) -> None:
        """Settle one invocation: release slots, score the outcome."""
        if ticket.done:
            return
        ticket.done = True
        if ticket.deadline_handle is not None:
            ticket.deadline_handle.cancel()
        supervisor = self.supervisor
        if ticket.epoch != supervisor.epoch:
            return  # the server crashed mid-flight; slots were reset
        self.bulkhead.release()
        watch = supervisor.watch(ticket.domain_id)
        if watch.in_flight > 0:
            watch.in_flight -= 1
        if ticket.expired:
            return  # the watchdog already scored this one as an overrun
        if error is None:
            self.health.record_success(probe=ticket.probe)
            if ticket.probe:
                supervisor.stats.add("probes_succeeded")
        elif isinstance(error, Exception):
            self.health.record_failure(probe=ticket.probe)
            supervisor.stats.add("invocations_failed")
            if ticket.probe:
                supervisor.stats.add("probes_failed")
        else:
            # BaseException (a kill): the agent died, which says nothing
            # about the resource's health.  Just release the probe slot.
            if ticket.probe:
                self.health._probing = False
        supervisor._check_budget(ticket.domain_id)

    def _note_shed(self, method: str, reason: str) -> None:
        if _obs.TRACING:
            _obs.TRACER.add_event(
                "supervisor.shed",
                resource=self.resource,
                method=method,
                reason=reason,
            )


class ResourceSupervisor:
    """One server's supervision brain: guards, watches, sweeps, kills."""

    def __init__(self, server: "AgentServer", config: SupervisorConfig) -> None:
        self.server = server
        self.config = config
        self.kernel = server.kernel
        self.clock = server.clock
        self.stats = Counter()
        self.epoch = 0  # bumped on crash: stale tickets stop mattering
        self._guards: dict[str, ResourceGuard] = {}
        self._watches: dict[str, _DomainWatch] = {}

    # -- guard lifecycle ----------------------------------------------------

    def attach(self, resource: "ResourceImpl") -> ResourceGuard:
        """Create (or return) the guard for a registering resource."""
        name = str(resource.resource_name())
        guard = self._guards.get(name)
        if guard is None:
            guard = self._guards[name] = ResourceGuard(self, name)
        resource.install_supervision(guard)
        return guard

    def detach(self, resource: "ResourceImpl") -> None:
        name = str(resource.resource_name())
        self._guards.pop(name, None)
        resource.install_supervision(None)

    def guard_of(self, resource_name) -> ResourceGuard:
        name = str(resource_name)
        try:
            return self._guards[name]
        except KeyError:
            raise ReproError(
                f"no supervised resource {name!r}", resource=name
            ) from None

    def health_of(self, resource_name) -> ResourceHealth:
        return self.guard_of(resource_name).health

    def watch(self, domain_id: str) -> _DomainWatch:
        watch = self._watches.get(domain_id)
        if watch is None:
            watch = self._watches[domain_id] = _DomainWatch()
        return watch

    def forget_domain(self, domain_id: str) -> None:
        """Drop a retired domain's watch (its slots died with it)."""
        self._watches.pop(domain_id, None)

    # -- injected resource faults (net/faults.py drives these) ---------------

    def inject_fault(
        self,
        resource_name,
        *,
        mode: str = "error",
        method: str | None = None,
        wedge_for: float = 60.0,
    ) -> None:
        if mode not in ("error", "wedge"):
            raise ValueError(f"unknown resource-fault mode {mode!r}")
        guard = self.guard_of(resource_name)
        guard.health.faults.append(
            ResourceFault(mode=mode, method=method, wedge_for=wedge_for)
        )
        self.stats.add("resource_faults_injected")

    def clear_fault(self, resource_name, *, method: str | None = None) -> None:
        guard = self.guard_of(resource_name)
        guard.health.faults = [
            f for f in guard.health.faults if f.method != method
        ]
        self.stats.add("resource_faults_cleared")

    # -- the watchdog --------------------------------------------------------

    def _on_deadline(self, ticket: _InvocationTicket) -> None:
        """Kernel timer: an invocation has overrun its deadline."""
        if ticket.done or ticket.epoch != self.epoch:
            return
        ticket.expired = True
        self.stats.add("invocation_deadline_overruns")
        guard = ticket.guard
        guard.health.record_failure(probe=ticket.probe)
        watch = self.watch(ticket.domain_id)
        watch.strikes += 1
        deadline = self.config.invoke_deadline
        if _obs.TRACING:
            _obs.annotate(
                "supervisor.deadline_overrun",
                f"{guard.resource}.{ticket.method}",
                domain=ticket.domain_id,
                strikes=watch.strikes,
            )
        self.server.audit.record(
            ticket.domain_id,
            "supervisor.overrun",
            f"{guard.resource}.{ticket.method}",
            False,
            f"exceeded {deadline}s deadline (strike {watch.strikes})",
        )
        if (
            not watch.killed
            and watch.strikes >= self.config.runaway_strikes
        ):
            watch.killed = True
            self.kill_runaway(
                ticket.domain_id,
                f"{watch.strikes} deadline overruns"
                f" (limit {self.config.runaway_strikes})",
            )
            return
        if ticket.thread is not None:
            ticket.thread.interrupt(
                InvocationDeadlineError(
                    f"invocation of {guard.resource}.{ticket.method}"
                    f" exceeded the {deadline}s deadline",
                    resource=guard.resource,
                    domain=ticket.domain_id,
                    method=ticket.method,
                    deadline=deadline,
                )
            )

    def _check_budget(self, domain_id: str) -> None:
        """Metered-budget leg of runaway detection (post-invocation)."""
        budget = self.config.runaway_budget
        if budget is None:
            return
        watch = self.watch(domain_id)
        if watch.killed:
            return
        try:
            charges = self.server.domain_db.get(domain_id).charges
        except ReproError:
            return
        if charges > budget:
            watch.killed = True
            # Never kill inline on the offender's own thread (finish runs
            # there): the kill lands at its next blocking point instead.
            self.kernel.schedule(
                0.0, self.kill_runaway, domain_id,
                f"charges {charges:.2f} exceeded budget {budget:.2f}",
            )

    # -- containment ---------------------------------------------------------

    def kill_runaway(self, domain_id: str, reason: str) -> bool:
        """Contain a runaway resident: kill, revoke, finalize, audit.

        A kill that finds nothing alive (the agent finished before a
        deferred kill fired) leaves its record and the counters alone.
        """
        server = self.server
        try:
            group = server.domain_db.get(domain_id).thread_group
        except ReproError:
            group = None
        if not server.terminate_resident(domain_id):
            return False
        revoked = 0
        if group is not None:
            # Revocation runs in the server's protection domain — the
            # reference monitor audits the group-level intervention and
            # each resource's per-domain index does the O(domain) sweep
            # (a resource that never granted to the domain returns 0).
            with enter_group(server.server_domain.thread_group):
                server.security_manager.check_group_modify(
                    group, detail=f"runaway kill: {reason}"
                )
                registry = server.registry
                for name in registry.names():
                    revoked += registry.lookup(name).revoke_for(domain_id)
        self.stats.add("agents_killed_runaway")
        server.stats.add("agents_killed_runaway")
        server.audit.record(
            domain_id, "agent.runaway_kill", "", False,
            f"{reason}; {revoked} grant(s) revoked",
        )
        if _obs.TRACING:
            _obs.annotate(
                "supervisor.runaway_kill", domain_id,
                reason=reason, revoked=revoked, killed_thread=True,
            )
        return True

    # -- leases ---------------------------------------------------------------

    def sweep_leases(self) -> dict[str, int]:
        """Re-validate every live grant against the kernel clock.

        Run on :meth:`AgentServer.restart`: unexpired leases survive the
        crash (their proxies keep working), lapsed ones are revoked —
        which also finalizes their meters.  The grants are the proxies
        still alive in each registered resource's per-domain index,
        whether or not their residency has ended.  Returns the sweep
        tally.
        """
        now = self.clock.now()
        swept = revalidated = 0
        server = self.server
        registry = server.registry
        with enter_group(server.server_domain.thread_group):
            for name in registry.names():
                for proxy in registry.lookup(name).issued_proxies():
                    info = proxy.proxy_info()
                    if info["revoked"]:
                        continue
                    expires_at = info["expires_at"]
                    if expires_at is not None and now > expires_at:
                        proxy.revoke()
                        swept += 1
                        server.audit.record(
                            info["grantee"],
                            "supervisor.lease_sweep",
                            str(name),
                            False,
                            f"lease lapsed at t={expires_at}",
                        )
                    else:
                        revalidated += 1
        self.stats.add("leases_swept", swept)
        self.stats.add("leases_revalidated", revalidated)
        if _obs.TRACING:
            _obs.annotate(
                "supervisor.lease_sweep", server.name,
                swept=swept, revalidated=revalidated,
            )
        return {"swept": swept, "revalidated": revalidated}

    # -- crash handling -------------------------------------------------------

    def on_crash(self) -> None:
        """Reset in-flight accounting: the threads all just died."""
        self.epoch += 1
        for guard in self._guards.values():
            guard.bulkhead.in_flight = 0
            guard.health._probing = False
        for watch in self._watches.values():
            watch.in_flight = 0

    # -- state transitions (health) ------------------------------------------

    def _on_health_transition(self, resource: str, old: str, new: str) -> None:
        self.stats.add(f"resources_{new}")
        if new == "quarantined":
            self.stats.add("quarantines")
        elif old == "quarantined" and new == "healthy":
            self.stats.add("recoveries")
        self.server.audit.record(
            self.server.name,
            "supervisor.health",
            resource,
            new != "quarantined",
            f"{old} -> {new}",
        )
        if _obs.TRACING:
            _obs.annotate(
                "supervisor.health_transition", resource, old=old, new=new
            )

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Operator view: per-resource health + shed/kill tallies."""
        return {
            "resources": {
                name: {
                    "state": guard.health.state,
                    "in_flight": guard.bulkhead.in_flight,
                    "peak": guard.bulkhead.peak,
                    "shed": guard.bulkhead.shed,
                }
                for name, guard in sorted(self._guards.items())
            },
            "stats": self.stats.as_dict(),
        }
