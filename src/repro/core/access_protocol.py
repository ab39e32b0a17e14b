"""The ``AccessProtocol`` interface (Fig. 7) and its standard mixin.

Paper::

    public interface AccessProtocol {
        // The getProxy method returns a proxy object
        public Resource getProxy();
    }

Every application resource implements ``AccessProtocol`` — "typically by
simply inheriting" — and its ``get_proxy`` is the authorization point:
it consults the resource's security policy against the requesting agent's
credentials and manufactures an appropriately restricted proxy (Fig. 6,
step 4; the upcall runs on the requesting agent's thread).

The mixin also keeps the resource's table of issued proxies, which is
what makes section 5.5's management operations possible:
``revoke_all`` / ``revoke_for`` ("a resource manager can invalidate any
of its currently active proxies at any time it wishes") and dynamic
policy replacement ("security policies of such resources can be
dynamically modified by their owners", section 5.1).

**Binding fast path.**  Policy decisions are pure functions of
``(credential chain, policy version)``, so ``get_proxy`` memoizes them in
a bounded per-resource LRU keyed by the chain's canonical fingerprint and
:attr:`SecurityPolicy.version`.  ``set_policy`` flushes the cache and
``add_rule``/group mutations bump the version, so a stale grant can never
be served — re-binding after a policy change re-decides, exactly as
section 5.1 requires.  The issued-proxy table is a per-domain index of
*weak* references: revocation is O(proxies of that domain), and proxies
dropped by their agents are reclaimed by the collector instead of pinning
memory for the server's lifetime.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.core.accounting import Meter, Tariff
from repro.core.capability import current_domain_id
from repro.core.policy import ProxyGrant, SecurityPolicy
from repro.core.proxy import ResourceProxy, synthesize_proxy_class
from repro.core.resource import Resource
from repro.core.token import (
    RING_VERIFIED,
    CapabilityToken,
    default_epoch_registry,
    default_token_authority,
    interface_digest,
    mask_of,
    methods_of,
)
from repro.credentials.cache import credential_fingerprint
from repro.credentials.delegation import DelegatedCredentials
from repro.errors import (
    AccessDeniedError,
    CapabilityConfinementError,
    PrivilegeError,
    ProxyRevokedError,
)
from repro.obs import runtime as _obs
from repro.util.audit import AuditLog
from repro.util.clock import Clock

__all__ = ["BindingContext", "AccessProtocol", "GRANT_CACHE_MAX"]

# Per-resource bound on memoized policy decisions.  Entries are small
# (a fingerprint key and a frozen ProxyGrant); the bound exists to cap
# adversarial credential churn, not ordinary populations.
GRANT_CACHE_MAX = 1024


@dataclass(frozen=True, slots=True)
class BindingContext:
    """Server-provided facts about the requesting domain.

    Constructed by the binding service (never by the agent), so the
    grantee identity baked into the proxy is trustworthy.
    """

    domain_id: str  # the requesting agent's protection domain
    clock: Clock
    server_domain_id: str = "server"
    audit: AuditLog | None = None
    on_charge: Callable[[str, float], None] | None = None  # accounting sink
    # The requesting domain's protection ring (trust tier), assigned at
    # admission.  Everything is ring 1 (verified) unless the server runs
    # an explicit RingPolicy — the default preserves uniform mediation.
    ring: int = RING_VERIFIED


class _ProxyBucket:
    """One domain's issued proxies: weak refs plus an issuance count.

    ``refs`` holds only *live* proxies (a weakref callback prunes each
    one the moment its agent drops it — the old strong-ref table leaked
    every proxy ever issued).  ``tracked`` counts issuances not yet
    covered by a revocation, so ``revoke_for``/``revoke_all`` report the
    number of grants invalidated whether or not the proxy objects still
    exist.
    """

    __slots__ = ("tracked", "refs", "holders")

    def __init__(self) -> None:
        self.tracked = 0
        self.refs: list[weakref.ref[ResourceProxy]] = []
        # Agent URNs granted under this domain — the epoch keys to bump
        # on revocation, so *tokens* that rode away with dropped proxies
        # die too, not just the live proxy objects.
        self.holders: set[str] = set()

    def add(self, proxy: ResourceProxy) -> None:
        self.tracked += 1
        refs = self.refs

        def reap(ref: weakref.ref, _refs: list = refs) -> None:
            try:
                _refs.remove(ref)
            except ValueError:
                pass  # already pruned by revoke_for/revoke_all

        refs.append(weakref.ref(proxy, reap))

    def live(self) -> list[ResourceProxy]:
        return [proxy for ref in list(self.refs) if (proxy := ref()) is not None]


class AccessProtocol:
    """Mixin providing the standard ``get_proxy`` implementation."""

    def init_access_protocol(
        self,
        policy: SecurityPolicy,
        *,
        tariff: Tariff | None = None,
        admin_domains: tuple[str, ...] = (),
    ) -> None:
        """Set up policy, tariff and proxy bookkeeping.

        Called explicitly from the resource's ``__init__`` (alongside
        ``ResourceImpl.__init__``), mirroring the two interfaces of Fig. 4.
        """
        self._policy = policy
        self._tariff = tariff if tariff is not None else Tariff.free()
        self._extra_admin_domains = frozenset(admin_domains)
        # domain id -> its issued-proxy bucket (weak refs + issue count).
        self._issued: dict[str, _ProxyBucket] = {}
        # Union of every admin set proxies were issued with; gates the
        # management operations even when the proxies themselves have
        # been garbage-collected (weak refs don't keep them alive).
        self._proxy_admin_domains: frozenset[str] = self._extra_admin_domains
        # (credential fingerprint, policy version) -> ProxyGrant, LRU.
        self._grant_cache: OrderedDict[tuple, ProxyGrant] = OrderedDict()
        self._grant_hits = 0
        self._grant_misses = 0
        # Duck-typed ResourceGuard from repro.server.supervisor (core has
        # no import edge to server/).  None = unsupervised: proxies take
        # the plain fast path and grants carry no default lease.
        self._supervision = None

    def install_supervision(self, guard) -> None:
        """Attach (or with ``None`` detach) this resource's guard.

        Called by the registry when a supervising server registers or
        unregisters the resource.  Affects proxies issued afterwards;
        already-issued proxies keep the guard they were born with.
        """
        self._supervision = guard

    # -- the memoized policy decision -----------------------------------------

    def _grant_for(self, credentials: DelegatedCredentials) -> ProxyGrant:
        """``self._policy.decide`` behind the bounded grant cache."""
        key = (credential_fingerprint(credentials), self._policy.version)
        cache = self._grant_cache
        grant = cache.get(key)
        if grant is not None:
            cache.move_to_end(key)
            self._grant_hits += 1
            return grant
        self._grant_misses += 1
        grant = self._policy.decide(self, credentials)
        cache[key] = grant
        while len(cache) > GRANT_CACHE_MAX:
            cache.popitem(last=False)
        return grant

    def flush_grant_cache(self) -> None:
        """Drop memoized policy decisions (future bindings re-decide)."""
        self._grant_cache.clear()

    def grant_cache_stats(self) -> dict[str, int]:
        """Hit/miss counters for benchmarks and invalidation tests."""
        return {
            "hits": self._grant_hits,
            "misses": self._grant_misses,
            "size": len(self._grant_cache),
        }

    # -- Fig. 7: the resource access interface ---------------------------------

    def get_proxy(
        self, credentials: DelegatedCredentials, context: BindingContext
    ) -> Resource:
        """Authorize and manufacture a proxy for the requesting agent.

        Raises :class:`AccessDeniedError` when the policy (or the agent's
        delegated rights) leaves nothing enabled.

        When tracing is on this is the Fig. 6 **step 4** span
        (``protocol.get_proxy``): a refusal closes it with status
        ``error`` carrying the deny reason and the ids of the policy
        rules that matched-but-granted-nothing (empty = default-deny).
        """
        target = type(self).__name__
        with _obs.span(
            "protocol.get_proxy",
            resource_type=target,
            domain=context.domain_id,
            agent=str(credentials.agent),
        ) as span:
            grant = self._grant_for(credentials)
            if not grant.enabled:
                reason = grant.deny_reason()
                if span is not None:
                    span.set_attribute("deny_rules", list(grant.matched_rules))
                    span.set_status("error", reason)
                if _obs.METRICS_ON:
                    _obs.METRICS.inc("proxy_grants_denied", resource=target)
                if context.audit is not None:
                    context.audit.record(
                        context.domain_id, "resource.get_proxy", target, False,
                        reason,
                    )
                raise AccessDeniedError(
                    f"{credentials.agent} is not granted any access to {target}"
                )
            if span is not None:
                span.set_attribute("enabled_methods", len(grant.enabled))
                span.set_attribute("matched_rules", list(grant.matched_rules))
            return self._manufacture(grant, credentials, context, None)

    def redeem_token(
        self,
        token: CapabilityToken,
        credentials: DelegatedCredentials,
        context: BindingContext,
    ) -> Resource:
        """Re-bind from a capability token: the O(1) warm path.

        A fresh, authentic token manufactures a proxy directly from its
        own fields — bitmask, confinement, lease — with **no policy
        consult and no grant-cache lookup**.  A stale token (epoch moved,
        ttl elapsed) or one minted for a different resource/interface
        falls back to :meth:`get_proxy`, which re-decides and re-mints.
        A token presented by anyone but its grantee fails closed
        (confinement: capabilities here are identity-based, section 5.5);
        a token whose MAC does not verify is rejected outright.
        """
        target = type(self).__name__
        if str(credentials.agent) != token.grantee:
            if _obs.METRICS_ON:
                _obs.METRICS.inc(
                    "capability_redeem_misses", resource=target, reason="theft"
                )
            if context.audit is not None:
                context.audit.record(
                    context.domain_id, "resource.redeem_token", target, False,
                    f"token grantee is {token.grantee}, presenter is"
                    f" {credentials.agent}",
                )
            raise CapabilityConfinementError(
                f"capability token for {token.resource} presented by"
                f" {credentials.agent}, but granted to {token.grantee}",
                resource=target,
                domain=context.domain_id,
            )
        authority = default_token_authority()
        authority.authenticate(token)  # TokenInvalidError on tamper
        if (
            token.resource_kind != target
            or token.resource != self._resource_token_id()
            or token.iface_digest != interface_digest(type(self))
            or not authority.is_fresh(token, context.clock.now())
        ):
            if _obs.METRICS_ON:
                _obs.METRICS.inc(
                    "capability_redeem_misses", resource=target, reason="stale"
                )
            return self.get_proxy(credentials, context)
        grant = ProxyGrant(
            enabled=methods_of(type(self), token.mask),
            lifetime=token.lease,
            confine=token.confine,
            metered=False,
            matched_rules=("capability-token",),
        )
        return self._manufacture(grant, credentials, context, token)

    # -- the one path from grant to proxy --------------------------------------

    def _manufacture(
        self,
        grant: ProxyGrant,
        credentials: DelegatedCredentials,
        context: BindingContext,
        token: CapabilityToken | None,
    ) -> Resource:
        """Turn an authorized grant into a live, indexed proxy.

        Both entry points end here: ``get_proxy`` with a fresh decision
        (``token`` None: one is minted), ``redeem_token`` with the
        authentic, fresh token it was handed (reused as is).  Metric and
        audit names stay per entry point.
        """
        target = type(self).__name__
        domain_id = context.domain_id
        bucket = self._issued.get(domain_id)
        guard = self._supervision
        if guard is not None:
            # Admission control at issue time: a domain hoarding grants
            # of one resource is shed here, before a proxy exists — and
            # trust never bypasses it, so redeemed grants count too.
            guard.admit_grant(
                domain_id, len(bucket.refs) if bucket is not None else 0
            )
        # The grant's lifetime *is* its lease: an explicit policy (or
        # token) lifetime wins, otherwise the supervisor's default applies.
        lease = grant.lifetime
        if lease is None and guard is not None:
            lease = guard.lease_duration
        mask = mask_of(type(self), grant.enabled)
        grantee = str(credentials.agent)
        redeemed = token is not None
        meter = None
        if grant.metered:
            # Metered grants get no token: the meter's billing state lives
            # server-side and cannot ride in a bearer token, so metered
            # re-binds always take the full path.
            meter = Meter(
                grantee=domain_id,
                resource=target,
                tariff=self._tariff,
                quotas=dict(grant.quotas),
                on_charge=context.on_charge,
            )
        elif token is None:
            token = self._mint_token(
                grantee, mask, grant.confine, lease, context.ring,
                context.clock.now(),
            )
        proxy = synthesize_proxy_class(type(self))(
            self,
            context,
            mask=mask,
            confine=grant.confine,
            lease=lease,
            token=token,
            credentials=credentials,
            meter=meter,
            admin_domains=self._extra_admin_domains
            | {context.server_domain_id},
            supervision=guard,
        )
        if bucket is None:
            bucket = self._issued[domain_id] = _ProxyBucket()
        bucket.add(proxy)
        bucket.holders.add(grantee)
        if context.server_domain_id not in self._proxy_admin_domains:
            self._proxy_admin_domains |= {context.server_domain_id}
        if redeemed:
            metric, operation = "capability_redeem_hits", "resource.redeem_token"
        else:
            metric, operation = "proxy_grants_issued", "resource.get_proxy"
        if _obs.METRICS_ON:
            _obs.METRICS.inc(metric, resource=target)
        if context.audit is not None:
            context.audit.record(
                domain_id, operation, target, True,
                f"mask={token.mask:#x}" if redeemed
                else f"enabled={len(grant.enabled)} methods",
            )
        return proxy

    # -- capability tokens (O(1) warm-path enforcement) -------------------------

    def _resource_token_id(self) -> str:
        """The stable identity tokens (and epoch cells) key on."""
        rid = getattr(self, "_token_rid", None)
        if rid is None:
            name = getattr(self, "_name", None)
            rid = (
                str(name)
                if name is not None
                else f"{type(self).__name__}@{id(self):x}"
            )
            self._token_rid = rid
        return rid

    def _mint_token(
        self,
        grantee: str,
        mask: int,
        confine: bool,
        lease: float | None,
        ring: int,
        now: float,
    ) -> CapabilityToken:
        """Sign a capability for ``grantee`` over this resource."""
        return default_token_authority().mint(
            grantee=grantee,
            resource=self._resource_token_id(),
            resource_kind=type(self).__name__,
            iface_digest=interface_digest(type(self)),
            mask=mask,
            ring=ring,
            confine=confine,
            lease=lease,
            now=now,
        )

    def _refresh_token(self, proxy: ResourceProxy, method: str) -> None:
        """Stale-token fallback: re-validate through the full path, in place.

        Invoked from a tokened proxy's ``_precheck`` when the token's
        epochs no longer match or its ttl elapsed.  Re-runs the policy
        decision (usually a grant-cache hit) under the proxy's stored
        credentials:

        * still granted → adopt the (possibly narrower) fresh grant and
          mint a new token — the call proceeds under the *new* authority;
        * denied, or newly metered → the proxy is revoked and the call
          fails closed with :class:`ProxyRevokedError` (a meter cannot be
          conjured mid-grant; the holder must re-bind through
          ``get_proxy``).
        """
        target = type(self).__name__
        if _obs.METRICS_ON:
            _obs.METRICS.inc("capability_tokens_refreshed", resource=target)
        grant = self._grant_for(proxy._credentials)
        if not grant.enabled or grant.metered:
            proxy._revoked = True
            proxy._token = None
            if proxy._meter is not None:
                proxy._meter.finalize()
            proxy._deny(method, "token_stale_denied")
            raise ProxyRevokedError(
                f"grant for {target} was revoked out from under its"
                f" capability token",
                resource=target,
                domain=proxy._grantee,
                method=method,
            )
        mask = mask_of(type(self), grant.enabled)
        token = self._mint_token(
            proxy._token.grantee, mask, grant.confine, proxy._lease_duration,
            proxy._ring, proxy._clock.now(),
        )
        proxy._set_authority(mask, grant.confine, token)

    # -- section 5.5 management operations -----------------------------------------

    def _check_manage(self, operation: str) -> None:
        """Gate a management operation on the proxy-admin domains.

        Mirrors the per-proxy privileged check (each live proxy still
        enforces its own admin set in ``revoke``), but also covers the
        case where every proxy of a domain has been collected: revocation
        authority must not depend on whether the agent dropped its
        references.  No-op when nothing was ever issued (there is nothing
        to manage, matching the pre-index behavior of an empty table).
        """
        if not self._issued:
            return
        caller = current_domain_id()
        if caller not in self._proxy_admin_domains:
            raise PrivilegeError(
                f"resource operation {operation!r} requires an admin domain,"
                f" caller is {caller!r}"
            )

    def issued_proxies(self) -> tuple[ResourceProxy, ...]:
        """The currently *live* proxies (collected ones are gone)."""
        return tuple(
            proxy
            for bucket in self._issued.values()
            for proxy in bucket.live()
        )

    def revoke_all(self) -> int:
        """Invalidate every issued grant; returns how many.

        The count covers every issuance not already revoked, including
        proxies whose agents dropped them (their grant is invalidated all
        the same); only the still-live proxy objects need flipping.
        """
        self._check_manage("revoke_all")
        count = 0
        for bucket in self._issued.values():
            for proxy in bucket.live():
                proxy.revoke()  # PrivilegeError leaves the index intact
            count += bucket.tracked
        if count:
            # One resource-epoch bump kills every outstanding token for
            # this resource — including copies that migrated away with
            # agents whose proxy objects are long collected.
            default_epoch_registry().bump_resource(self._resource_token_id())
        self._issued.clear()
        return count

    def revoke_for(self, domain_id: str) -> int:
        """Invalidate the grants issued to one protection domain.

        O(proxies of that domain): the per-domain index replaces the old
        scan over every proxy ever issued.
        """
        self._check_manage("revoke_for")
        bucket = self._issued.get(domain_id)
        if bucket is None:
            return 0
        for proxy in bucket.live():
            proxy.revoke()  # PrivilegeError leaves the index intact
        registry = default_epoch_registry()
        for holder in bucket.holders:
            # Tokens are keyed by the *agent's* stable identity, so this
            # also invalidates copies carried to other servers.  A holder
            # epoch bump is deliberately broad (all of that agent's
            # tokens): innocent ones transparently re-validate and
            # re-mint at their next use.
            registry.bump_holder(holder)
        del self._issued[domain_id]
        return bucket.tracked

    def set_policy(self, policy: SecurityPolicy) -> None:
        """Replace the security policy.

        Future grants re-decide (the grant cache is flushed) and every
        outstanding capability token goes stale via a resource-epoch
        bump: at its next use each holder transparently re-validates
        against the *new* policy — re-minting if still granted, revoked
        if not.  Live proxies keep their already-issued grants, exactly
        as before ("affects future grants"), but token-carried authority
        is re-checked.
        """
        self._policy = policy
        self._grant_cache.clear()
        default_epoch_registry().bump_resource(self._resource_token_id())

    @property
    def policy(self) -> SecurityPolicy:
        return self._policy

    @property
    def tariff(self) -> Tariff:
        return self._tariff

