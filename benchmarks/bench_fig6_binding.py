"""F6 — the six-step resource binding protocol (Fig. 6).

Measured:

- the one-time cost of ``get_resource`` (steps 2-5: registry lookup,
  policy upcall, proxy manufacture, domain-db bookkeeping);
- the amortization argument that justifies proxies over wrappers: total
  cost of *bind once + N proxy calls* vs *N wrapper (ACL-checked) calls*,
  reporting the crossover N.
"""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.baselines.wrapper import AccessControlList, wrap_resource
from repro.core.binding import BindingService
from repro.core.domain_db import DomainDatabase
from repro.core.policy import SecurityPolicy
from repro.core.registry import ResourceRegistry
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.sandbox.security_manager import SecurityManager
from repro.sandbox.threadgroup import enter_group
from repro.util.audit import AuditLog

from _common import BenchWorld, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")
RES = URN.parse("urn:resource:bench.org/buf")


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


@pytest.fixture(scope="module")
def service(world):
    secman = SecurityManager(world.server_domain, AuditLog(world.clock))
    registry = ResourceRegistry(secman, world.clock)
    db = DomainDatabase(world.clock)
    service = BindingService(registry, db, world.clock)
    buf = Buffer(RES, OWNER, SecurityPolicy.allow_all(confine=False))
    with enter_group(world.server_domain.thread_group):
        service.register_resource(buf)
    return service


def test_get_resource_full_protocol(benchmark, world, service):
    domain = world.agent_domain(Rights.all())
    with enter_group(domain.thread_group):
        benchmark(service.get_resource, RES)


def test_registry_lookup_only(benchmark, service):
    benchmark(service.registry.lookup, RES)


def test_table_f6(benchmark, world, service):
    def build():
        domain = world.agent_domain(Rights.all())
        resource = service.registry.lookup(RES)
        with enter_group(domain.thread_group):
            def cold_bind():
                resource.flush_grant_cache()
                service.get_resource(RES)

            # Cold: first visit (policy decided afresh).  Warm: re-binding
            # with the grant memoized — the steady state for agents that
            # bind on every hop.
            bind_ns = time_op(cold_bind, target_seconds=0.03)
            service.get_resource(RES)  # prime the grant cache
            warm_bind_ns = time_op(lambda: service.get_resource(RES),
                                   target_seconds=0.03)
            proxy = service.get_resource(RES)
            proxy_call_ns = time_op(proxy.size)
            acl = AccessControlList().allow(
                "owner", "urn:principal:bench.org/*", Rights.of("Buffer.*")
            )
            wrapper = wrap_resource(service.registry.lookup(RES), acl)
            wrapper_call_ns = time_op(wrapper.size)
        rows = []
        for n_calls in (1, 10, 100, 1000, 10000):
            proxy_total = bind_ns + n_calls * proxy_call_ns
            wrapper_total = n_calls * wrapper_call_ns
            winner = "proxy" if proxy_total < wrapper_total else "wrapper"
            rows.append([
                n_calls, proxy_total / 1000, wrapper_total / 1000, winner,
            ])
        crossover = bind_ns / max(wrapper_call_ns - proxy_call_ns, 1e-9)
        return (rows, bind_ns, warm_bind_ns, proxy_call_ns, wrapper_call_ns,
                crossover)

    rows, bind_ns, warm_bind_ns, proxy_ns, wrapper_ns, crossover = (
        benchmark.pedantic(build, rounds=1, iterations=1)
    )
    write_table(
        "F6",
        "binding amortization: bind-once+proxy vs per-call ACL wrapper (Fig. 6)",
        ["N calls", "proxy total µs", "wrapper total µs", "winner"],
        rows,
        seed=4000,
        headline=("bind-once vs ACL wrapper crossover", crossover, "calls"),
        notes=(
            f"one-time binding (cold) = {bind_ns:,.0f} ns;"
            f" re-binding (warm, grant cache hit) = {warm_bind_ns:,.0f} ns;"
            f" proxy call = {proxy_ns:,.0f} ns;"
            f" wrapper call = {wrapper_ns:,.0f} ns;"
            f" crossover at N ≈ {crossover:.1f} calls — beyond that the"
            " proxy's front-loaded authorization wins, matching section 5.4."
            " Amortization rows use the cold bind; agents re-binding to a"
            " resource they have visited pay only the warm cost."
        ),
    )
    assert warm_bind_ns < bind_ns  # the fast path must actually be faster
