"""C3 — revocation, expiry and confinement costs (section 5.5).

Three questions:

- what do the extra pre-checks (expiry clock read, confinement domain
  compare) cost per call on a *live* proxy?
- how fast does a *revoked/expired* proxy fail (the deny path)?
- how long does it take a resource manager to revoke N outstanding
  proxies at once?
"""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.errors import SecurityException
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group

from _common import BenchWorld, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")


def proxy_with(world, *, lifetime=None, confine=False):
    policy = SecurityPolicy(
        rules=[PolicyRule("any", "*", Rights.of("Buffer.*"),
                          lifetime=lifetime, confine=confine)]
    )
    buf = Buffer(URN.parse("urn:resource:bench.org/b"), OWNER, policy)
    domain = world.agent_domain(Rights.all())
    return buf, domain, buf.get_proxy(domain.credentials, world.context(domain))


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


def test_live_call_no_extras(benchmark, world):
    _, domain, proxy = proxy_with(world)
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_live_call_with_expiry(benchmark, world):
    _, domain, proxy = proxy_with(world, lifetime=1e9)
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_live_call_with_confinement(benchmark, world):
    _, domain, proxy = proxy_with(world, confine=True)
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_denied_call_revoked(benchmark, world):
    _, domain, proxy = proxy_with(world)
    with enter_group(world.server_domain.thread_group):
        proxy.revoke()

    def denied():
        try:
            proxy.size()
        except SecurityException:
            pass

    with enter_group(domain.thread_group):
        benchmark(denied)


@pytest.mark.parametrize("n_proxies", [10, 1000])
def test_revoke_all(benchmark, world, n_proxies):
    def setup():
        buf = Buffer(URN.parse("urn:resource:bench.org/b"), OWNER,
                     SecurityPolicy.allow_all(confine=False))
        for _ in range(n_proxies):
            domain = world.agent_domain(Rights.all())
            buf.get_proxy(domain.credentials, world.context(domain))
        return (buf,), {}

    def revoke(buf):
        with enter_group(world.server_domain.thread_group):
            buf.revoke_all()

    benchmark.pedantic(revoke, setup=setup, rounds=5, iterations=1)


def test_table_c3(benchmark, world):
    def build():
        rows = []
        _, domain, plain = proxy_with(world)
        _, domain_e, with_expiry = proxy_with(world, lifetime=1e9)
        _, domain_c, with_confine = proxy_with(world, confine=True)
        with enter_group(domain.thread_group):
            base = time_op(plain.size)
            rows.append(["live call, minimal pre-check", base, 1.0])
        with enter_group(domain_e.thread_group):
            ns = time_op(with_expiry.size)
            rows.append(["+ expiry check (clock read)", ns, ns / base])
        with enter_group(domain_c.thread_group):
            ns = time_op(with_confine.size)
            rows.append(["+ confinement check (domain compare)", ns, ns / base])
        # deny paths
        buf, domain_r, revoked = proxy_with(world)
        with enter_group(world.server_domain.thread_group):
            revoked.revoke()

        def call_revoked():
            try:
                revoked.size()
            except SecurityException:
                pass

        _, domain_x, expired = proxy_with(world, lifetime=1.0)
        world.clock.advance(5.0)

        def call_expired():
            try:
                expired.size()
            except SecurityException:
                pass

        with enter_group(domain_r.thread_group):
            ns = time_op(call_revoked)
            rows.append(["denied: revoked proxy", ns, ns / base])
        with enter_group(domain_x.thread_group):
            ns = time_op(call_expired)
            rows.append(["denied: expired proxy", ns, ns / base])
        # bulk revocation
        import time as _time

        for n in (100, 10000):
            buf = Buffer(URN.parse("urn:resource:bench.org/b"), OWNER,
                         SecurityPolicy.allow_all(confine=False))
            for _ in range(n):
                d = world.agent_domain(Rights.all())
                buf.get_proxy(d.credentials, world.context(d))
            start = _time.perf_counter()
            with enter_group(world.server_domain.thread_group):
                buf.revoke_all()
            wall = _time.perf_counter() - start
            rows.append([f"revoke_all over {n} proxies", wall / n * 1e9, ""])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "C3",
        "revocation / expiry / confinement costs (section 5.5)",
        ["operation", "ns", "x live-call"],
        rows,
        seed=4000,
        headline=(
            "revoke_all over 10000 proxies",
            next(r[1] for r in rows if r[0] == "revoke_all over 10000 proxies"),
            "ns/proxy",
        ),
        notes=(
            "revocation takes effect at the very next invocation (a flag"
            " on the proxy), and bulk revocation is linear with a tiny"
            " constant — 'a resource manager can invalidate any of its"
            " currently active proxies at any time it wishes'."
        ),
    )
