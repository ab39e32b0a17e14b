"""Per-agent resource proxies (Fig. 5 + section 5.5 extensions).

A proxy is "an object with a safe interface to the resource": it holds a
*private* reference to the real resource (``_ref`` — agent code cannot
touch underscore attributes, the verifier guarantees it, mirroring Java's
``private``), implements the same exported interface, and passes each
invocation through only after a pre-check.

Pre-check order (each step has a dedicated exception, and tests pin this
order):

1. **revoked?**     → :class:`ProxyRevokedError`   (section 5.5, revocation)
2. **expired?**     → :class:`ProxyExpiredError`   (section 5.5, time-out)
3. **confined?**    → :class:`CapabilityConfinementError` (identity-based
   capability: invoker's domain must be the grantee's)
4. **token fresh?** → transparent re-validation through the full
   authorization path when the proxy's capability token went stale
   (epoch bump or ttl) — re-mints on success, revokes on denial
5. **enabled?**     → :class:`MethodDisabledError` (Fig. 5's ``isEnabled``)
6. **quota/price**  → :class:`QuotaExceededError`  (section 5.5, accounting)

For an ordinary allowed call this is a handful of attribute reads, two
integer compares against the epoch cells, and one bitmask test — the
paper's claim that "once a safe proxy is made available to an agent,
access control checks would require a minimal amount of computation" is
benchmark F5.  The enabled-method check is a single ``mask & bit``
against a per-class bit assignment, and the mask is the only record of
which methods are enabled.

Proxy classes are synthesized from the resource class's exported
interface — the runtime equivalent of the paper's "simple lexical
processing tool" that generated ``BufferProxy`` from ``Buffer``.
Synthesis is cached per resource class; instantiation per agent is cheap
(bound-method forwarding tables are built once per resource instance and
shared read-only across its proxies).

**Protection rings.**  Each proxy binds its dispatch path *once* at
instantiation, from the grantee's trust ring: ring-2 (untrusted) pays
full mediation including a per-invocation audit record, ring-1 the
standard checks, ring-0 was issued without audit or metering hooks so
its path is already minimal.  Supervision (bulkheads, deadlines,
quotas) wraps the path for **every** ring — trust reduces bookkeeping,
never safety interlocks.

The *privileged* control surface (``revoke``, ``set_method_enabled``,
``set_expiry``) is the section-5.5 mechanism: "a resource manager can
invalidate any of its currently active proxies at any time ... by
invoking a privileged method of the proxy object", guarded by "access
control information about the protection domains that are permitted to
execute this privileged method" (``admin_domains`` here).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

from repro.core.accounting import Meter
from repro.core.capability import check_confinement, current_domain_id
from repro.core.resource import Resource, exported_methods
from repro.core.token import (
    RING_NAMES,
    RING_UNTRUSTED,
    default_token_authority,
    method_bits,
    methods_of,
)
from repro.errors import (
    MethodDisabledError,
    PrivilegeError,
    ProxyExpiredError,
    ProxyRevokedError,
    SecurityException,
)
from repro.obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.access_protocol import BindingContext
    from repro.core.token import CapabilityToken
    from repro.credentials.delegation import DelegatedCredentials

__all__ = ["ResourceProxy", "synthesize_proxy_class", "RESERVED_PROXY_NAMES"]

# Names the proxy base class needs for itself; a resource may not export them.
RESERVED_PROXY_NAMES = frozenset(
    {
        "revoke",
        "set_method_enabled",
        "set_expiry",
        "proxy_info",
        "usage_report",
        "renew_lease",
        "capability_token",
    }
)


class ResourceProxy(Resource):
    """Base class for all synthesized proxies."""

    # method name → single-bit mask; overridden per synthesized class.
    _method_bits: dict[str, int] = {}

    __slots__ = (
        "__weakref__",  # the resource's issued-proxy index holds weak refs
        "_ref",
        "_mask",
        "_grantee",
        "_expires_at",
        "_clock",
        "_confine",
        "_revoked",
        "_meter",
        "_time_metered",
        "_audit",
        "_admin_domains",
        "_forwards",
        "_target_name",
        "_guard",
        "_lease_duration",
        "_inflight",
        "_ring",
        "_dispatch",
        "_token",
        "_hcell",
        "_credentials",
    )

    def __init__(
        self,
        resource: Resource,
        context: "BindingContext",
        *,
        mask: int,
        confine: bool,
        lease: float | None,
        token: "CapabilityToken | None" = None,
        credentials: "DelegatedCredentials | None" = None,
        meter: Meter | None = None,
        admin_domains: frozenset[str] = frozenset(),
        supervision: Any | None = None,
    ) -> None:
        self._ref = resource  # private: never visible through the interface
        self._grantee = context.domain_id
        self._clock = context.clock
        # The lease is renewable via ``renew_lease``; lapse means automatic
        # revocation.  None = a perpetual grant.
        self._lease_duration = lease
        self._expires_at = (
            context.clock.now() + lease if lease is not None else None
        )
        self._revoked = False
        self._meter = meter
        self._time_metered = meter is not None and meter.time_metered
        self._audit = context.audit
        self._admin_domains = admin_domains
        self._guard = supervision  # duck-typed ResourceGuard (or None)
        self._inflight: tuple[str, float] | None = None
        self._target_name = f"{type(resource).__name__}"
        self._forwards = _bound_forwards(resource)
        self._credentials = credentials  # grantee credentials, for re-validation
        self._set_authority(mask, confine, token)
        # The trust ring picks the dispatch path once, here — never per
        # call.  Supervision gates apply to every ring; ring 2 addition-
        # ally leaves a per-invocation audit trail.
        ring = context.ring
        self._ring = ring
        if ring >= RING_UNTRUSTED and context.audit is not None:
            self._dispatch = _mediated_call
        elif supervision is not None:
            self._dispatch = _guarded_call
        else:
            self._dispatch = _checked_call

    def _set_authority(
        self, mask: int, confine: bool, token: "CapabilityToken | None"
    ) -> None:
        """Write what this proxy may do, at construction and on refresh.

        ``token`` is the signed capability backing the grant (None =
        enforce purely from local grant state); the proxy holds its
        holder's epoch *cell*, re-fetched here because the registry may
        have recycled an older one (soft cap).
        """
        self._mask = mask
        self._confine = confine
        self._token = token
        self._hcell = (
            default_token_authority().registry.holder_cell(token.grantee)
            if token is not None
            else None
        )

    # -- the pre-check (Fig. 5's isEnabled, extended per section 5.5) -----------

    def _precheck(self, method: str, method_bit: int) -> None:
        if self._revoked:
            self._deny(method, "revoked")
            raise ProxyRevokedError(
                f"proxy for {self._target_name} has been revoked",
                resource=self._target_name,
                domain=self._grantee,
                method=method,
            )
        if self._expires_at is not None and self._clock.now() > self._expires_at:
            self._deny(method, "expired")
            raise ProxyExpiredError(
                f"proxy for {self._target_name} expired at t={self._expires_at}",
                resource=self._target_name,
                domain=self._grantee,
                method=method,
                deadline=self._expires_at,
            )
        if self._confine:
            try:
                check_confinement(self._grantee, self._target_name)
            except SecurityException:
                self._deny(method, "confinement")
                raise
        token = self._token
        if token is not None and (
            self._hcell.value != token.holder_epoch
            or (
                token.expires_at is not None
                and self._clock.now() > token.expires_at
            )
        ):
            # Stale capability: the holder's epoch moved out from under us
            # (out-of-band revocation, agent retirement) or the token ttl
            # elapsed.  Fall back to the full authorization path — it
            # re-mints on success and revokes this proxy on denial (fail
            # closed).  The *resource* epoch is deliberately not compared
            # here: it gates token redemption (re-binding), while a live
            # proxy keeps the grant it was issued — ``set_policy`` affects
            # future grants only, exactly as before tokens existed.
            self._ref._refresh_token(self, method)
        if not (self._mask & method_bit):
            self._deny(method, "disabled")
            raise MethodDisabledError(
                f"method {self._target_name}.{method} is disabled on this proxy",
                resource=self._target_name,
                domain=self._grantee,
                method=method,
            )
        if self._meter is not None:
            self._meter.charge_call(method)  # raises QuotaExceededError

    def _deny(self, method: str, reason: str) -> None:
        if _obs.TRACING:
            _obs.TRACER.add_event(
                "proxy.deny", method=method, reason=reason
            )
        if _obs.METRICS_ON:
            _obs.METRICS.inc(
                "proxy_invocations_denied",
                resource=self._target_name,
                reason=reason,
            )
        if self._audit is not None:
            self._audit.record(
                self._grantee,
                "proxy.invoke",
                f"{self._target_name}.{method}",
                False,
                reason,
            )

    # -- privileged control surface (section 5.5) ---------------------------------

    def _check_privileged(self, operation: str) -> None:
        caller = current_domain_id()
        if caller not in self._admin_domains:
            if self._audit is not None:
                self._audit.record(
                    caller or "<none>", f"proxy.{operation}",
                    self._target_name, False, "not an admin domain",
                )
            raise PrivilegeError(
                f"proxy operation {operation!r} requires an admin domain,"
                f" caller is {caller!r}"
            )

    def revoke(self) -> None:
        """Invalidate this proxy entirely (privileged).

        Also settles the account: a time-metered call still in flight is
        charged for the time it used up to the revocation instant, then
        the meter is finalized so nothing accrues (or leaks) afterwards.
        Any capability token minted for this grant is invalidated too, by
        bumping the holder's epoch — copies of the token that migrated
        away with the agent fail closed at their next use.
        """
        self._check_privileged("revoke")
        self._revoked = True
        if self._token is not None and self._hcell is not None:
            self._hcell.value += 1
            self._token = None
        if self._meter is not None:
            inflight = self._inflight
            if inflight is not None and self._time_metered:
                method, started = inflight
                self._meter.charge_elapsed(method, self._clock.now() - started)
            self._meter.finalize()
        if _obs.TRACING:
            _obs.annotate(
                "proxy.revoke", self._target_name, grantee=self._grantee
            )
        if _obs.METRICS_ON:
            _obs.METRICS.inc("proxies_revoked", resource=self._target_name)

    def set_method_enabled(self, method: str, enabled: bool) -> None:
        """Selectively revoke or add one method (privileged)."""
        self._check_privileged("set_method_enabled")
        if method not in self._forwards:
            raise SecurityException(
                f"{self._target_name} has no exported method {method!r}"
            )
        bit = self._method_bits[method]
        if enabled:
            self._mask |= bit
        else:
            self._mask &= ~bit

    def set_expiry(self, expires_at: float | None) -> None:
        """Move (or clear) the proxy's expiration time (privileged)."""
        self._check_privileged("set_expiry")
        self._expires_at = expires_at
        if _obs.TRACING:
            _obs.annotate(
                "proxy.set_expiry",
                self._target_name,
                grantee=self._grantee,
                expires_at=expires_at,
            )

    # -- the lease (holder-facing half of supervision) ------------------------------

    def renew_lease(self) -> float | None:
        """Extend this grant's lease by one lease period (holder-callable).

        Returns the new deadline (None for perpetual grants).  Lapse is
        automatic revocation: renewing *after* the deadline flips the
        proxy to revoked, finalizes its meter, and raises
        :class:`ProxyExpiredError` — the holder must go back through the
        Fig. 6 binding protocol for a fresh grant.
        """
        if self._revoked:
            self._deny("renew_lease", "revoked")
            raise ProxyRevokedError(
                f"proxy for {self._target_name} has been revoked",
                resource=self._target_name,
                domain=self._grantee,
            )
        if self._confine:
            check_confinement(self._grantee, self._target_name)
        if self._expires_at is None:
            return None
        now = self._clock.now()
        if now > self._expires_at:
            self._revoked = True
            if self._meter is not None:
                self._meter.finalize()
            self._deny("renew_lease", "lease_lapsed")
            raise ProxyExpiredError(
                f"lease on {self._target_name} lapsed at t={self._expires_at}",
                resource=self._target_name,
                domain=self._grantee,
                deadline=self._expires_at,
            )
        self._expires_at = now + self._lease_duration
        if _obs.TRACING:
            _obs.annotate(
                "proxy.renew_lease",
                self._target_name,
                grantee=self._grantee,
                expires_at=self._expires_at,
            )
        return self._expires_at

    # -- unprivileged introspection -------------------------------------------------

    def proxy_info(self) -> dict[str, Any]:
        """What the holder may know about its own proxy."""
        return {
            "resource": self._target_name,
            "grantee": self._grantee,
            "enabled": methods_of(type(self._ref), self._mask),
            "expires_at": self._expires_at,
            "confined": self._confine,
            "revoked": self._revoked,
            "metered": self._meter is not None,
            "ring": self._ring,
        }

    def usage_report(self):
        """The holder's own bill so far (None when unmetered)."""
        return self._meter.report() if self._meter is not None else None

    def capability_token(self) -> "CapabilityToken | None":
        """The signed capability backing this grant (holder-callable).

        The holder carries it across migration and redeems it at re-bind
        for the O(1) fast path (:meth:`~repro.core.access_protocol
        .AccessProtocol.redeem_token`).  ``None`` for metered grants —
        billing state cannot ride in a bearer token.
        """
        return self._token


def _bound_forwards(resource: Resource) -> dict[str, Callable[..., Any]]:
    """The resource's bound exported methods, built once and shared.

    Every proxy onto the same resource instance forwards through the
    same (read-only) table, so N grants pay the ``getattr`` sweep once.
    Slotted resource classes without a spare attribute simply rebuild
    per proxy — correctness is identical.
    """
    forwards = getattr(resource, "__proxy_forwards__", None)
    if forwards is None:
        forwards = {
            name: getattr(resource, name)
            for name in exported_methods(type(resource))
        }
        try:
            resource.__proxy_forwards__ = forwards
        except AttributeError:
            pass
    return forwards


def _observed_invoke(
    self: ResourceProxy, method: str, bit: int, args: tuple, kwargs: dict
) -> Any:
    """Slow path: Fig. 6 step 6 as a span plus a latency histogram.

    Lives out of line so the common (observability-off) forwarder body
    stays exactly the pre-instrumentation handful of checks.
    """
    start_ns = time.perf_counter_ns() if _obs.METRICS_ON else 0
    try:
        with _obs.span(
            "proxy.invoke",
            resource=self._target_name,
            method=method,
            domain=self._grantee,
            ring=RING_NAMES.get(self._ring, str(self._ring)),
        ):
            return self._dispatch(self, method, bit, args, kwargs)
    finally:
        if _obs.METRICS_ON:
            _obs.METRICS.histogram(
                "proxy_invoke_ns",
                resource=self._target_name,
                method=method,
            ).observe(time.perf_counter_ns() - start_ns)


def _checked_call(
    self: ResourceProxy, method: str, bit: int, args: tuple, kwargs: dict
) -> Any:
    self._precheck(method, bit)
    if self._time_metered:
        start = self._clock.now()
        self._inflight = (method, start)
        try:
            return self._forwards[method](*args, **kwargs)
        finally:
            self._inflight = None
            self._meter.charge_elapsed(method, self._clock.now() - start)
    return self._forwards[method](*args, **kwargs)


def _guarded_call(
    self: ResourceProxy, method: str, bit: int, args: tuple, kwargs: dict
) -> Any:
    """Supervised invocation: security pre-check, then the guard.

    Security decides first (a denied call must not consume a bulkhead
    slot or count against the resource's health); the guard then admits
    or sheds, arms the watchdog, applies any injected resource fault,
    and scores the outcome.  The fault gate runs *inside* the ticket so
    a wedged or erroring resource counts as this invocation's outcome
    and releases its slot.
    """
    self._precheck(method, bit)
    guard = self._guard
    ticket = guard.begin(self._grantee, method)
    try:
        guard.fault_gate(ticket)
        if self._time_metered:
            start = self._clock.now()
            self._inflight = (method, start)
            try:
                result = self._forwards[method](*args, **kwargs)
            finally:
                self._inflight = None
                self._meter.charge_elapsed(method, self._clock.now() - start)
        else:
            result = self._forwards[method](*args, **kwargs)
    except BaseException as exc:
        guard.finish(ticket, exc)
        raise
    guard.finish(ticket, None)
    return result


def _mediated_call(
    self: ResourceProxy, method: str, bit: int, args: tuple, kwargs: dict
) -> Any:
    """Ring-2 full mediation: the standard path plus a success audit
    record per invocation.

    Denials are audited inside ``_deny`` for every ring; untrusted
    tenants additionally leave a positive trail, so their entire
    interaction with the resource is reconstructable.
    """
    if self._guard is not None:
        result = _guarded_call(self, method, bit, args, kwargs)
    else:
        result = _checked_call(self, method, bit, args, kwargs)
    audit = self._audit
    if audit is not None:
        audit.record(
            self._grantee,
            "proxy.invoke",
            f"{self._target_name}.{method}",
            True,
            "ring2",
        )
    return result


def _make_forwarder(method: str, bit: int) -> Callable[..., Any]:
    def forwarder(self: ResourceProxy, *args: Any, **kwargs: Any) -> Any:
        if _obs.ENABLED:
            return _observed_invoke(self, method, bit, args, kwargs)
        return self._dispatch(self, method, bit, args, kwargs)

    forwarder.__name__ = method
    forwarder.__qualname__ = f"proxy.{method}"
    forwarder.__doc__ = f"Checked pass-through to the resource's {method!r}."
    return forwarder


_proxy_class_cache: dict[type, type] = {}


def synthesize_proxy_class(resource_cls: type) -> type:
    """Generate (and cache) the proxy class for ``resource_cls``.

    The runtime analogue of the paper's proxy-generator tool: one proxy
    class per resource class, instantiated once per grantee.  Each
    exported method gets a stable bit position (definition order), baked
    into its forwarder and into the class's ``_method_bits`` table so
    the pre-check and capability tokens agree on the encoding.
    """
    cached = _proxy_class_cache.get(resource_cls)
    if cached is not None:
        return cached
    methods = exported_methods(resource_cls)
    if not methods:
        raise SecurityException(
            f"{resource_cls.__name__} exports no methods; nothing to proxy"
        )
    collisions = RESERVED_PROXY_NAMES.intersection(methods)
    if collisions:
        raise SecurityException(
            f"{resource_cls.__name__} exports reserved proxy name(s):"
            f" {', '.join(sorted(collisions))}"
        )
    bits = method_bits(resource_cls)
    namespace: dict[str, Any] = {
        name: _make_forwarder(name, bits[name]) for name in methods
    }
    namespace["_method_bits"] = bits
    namespace["__slots__"] = ()
    proxy_cls = type(f"{resource_cls.__name__}Proxy", (ResourceProxy,), namespace)
    _proxy_class_cache[resource_cls] = proxy_cls
    return proxy_cls
