"""F5 — the design-space comparison of section 5.4 (Fig. 5's call path).

Per-invocation cost of one enabled resource call under each access-control
design, against a direct (unprotected) call:

- **proxy** (the paper's choice), confined and unconfined;
- **wrapper + ACL**, with growing ACL length (the ACL is consulted per call);
- **security-manager-checked**, with a growing central policy table;
- **Safe-Tcl two-environment** (per-call screening + marshalling).

Paper's prediction: "Once a safe proxy is made available to an agent,
access control checks would require a minimal amount of computation",
wrappers re-check identity per call, and the two-environment design
"can incur substantial overhead ... a transition across system-level
protection domains on every resource access".
"""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.baselines.safe_env import SafeEnvironment, TrustedEnvironment
from repro.core.baselines.secman_checked import AppSecurityManager, guard_resource
from repro.core.baselines.wrapper import AccessControlList, wrap_resource
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group
from repro.util.audit import AuditLog

from _common import BenchWorld, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")


def make_buffer(local="buf"):
    return Buffer(
        URN.parse(f"urn:resource:bench.org/{local}"),
        OWNER,
        SecurityPolicy.allow_all(confine=False),
    )


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


@pytest.fixture(scope="module")
def domain(world):
    return world.agent_domain(Rights.all())


def proxy_for(world, domain, confine: bool):
    buf = make_buffer()
    buf.set_policy(SecurityPolicy.allow_all(confine=confine))
    return buf.get_proxy(domain.credentials, world.context(domain))


def proxy_at_ring(world, domain, ring: int):
    """A proxy bound under an explicit protection ring (PR 6 tiering).

    Ring 2 carries an audit sink, so every successful call writes one
    audit record — the mediation cost untrusted tenants pay.
    """
    from repro.core.access_protocol import BindingContext
    from repro.core.token import RING_TRUSTED

    buf = make_buffer()
    buf.set_policy(SecurityPolicy.allow_all(confine=False))
    audit = None if ring == RING_TRUSTED else AuditLog(world.clock, capacity=256)
    context = BindingContext(
        domain_id=domain.domain_id,
        clock=world.clock,
        server_domain_id="server",
        audit=audit,
        ring=ring,
    )
    return buf.get_proxy(domain.credentials, context)


def acl_wrapper(acl_len: int):
    buf = make_buffer()
    acl = AccessControlList()
    # Non-matching entries first: the real principal matches only the last
    # entry, the worst (and common open-world) case.
    for i in range(acl_len - 1):
        acl.allow("owner", f"urn:principal:other{i}.org/*", Rights.of("Buffer.*"))
    acl.allow("owner", "urn:principal:bench.org/*", Rights.of("Buffer.*"))
    return wrap_resource(buf, acl)


def secman_guarded(world, n_policies: int):
    manager = AppSecurityManager(world.server_domain, AuditLog(world.clock))
    for i in range(n_policies - 1):
        manager.install_app_policy(f"Other{i}", SecurityPolicy.allow_all())
    manager.install_app_policy("Buffer", SecurityPolicy.allow_all(confine=False))
    return guard_resource(make_buffer(), manager)


def safe_env(world):
    trusted = TrustedEnvironment()
    trusted.install("buf", make_buffer())
    safe = SafeEnvironment(trusted)
    safe.set_policy("buf", SecurityPolicy.allow_all(confine=False))
    return safe


# ---------------------------------------------------------------------------
# pytest-benchmark micro timings
# ---------------------------------------------------------------------------


def test_direct_call(benchmark, world, domain):
    buf = make_buffer()
    benchmark(buf.size)


def test_proxy_call_unconfined(benchmark, world, domain):
    proxy = proxy_for(world, domain, confine=False)
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_proxy_call_confined(benchmark, world, domain):
    proxy = proxy_for(world, domain, confine=True)
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


@pytest.mark.parametrize("acl_len", [1, 16, 64])
def test_wrapper_call(benchmark, world, domain, acl_len):
    wrapper = acl_wrapper(acl_len)
    with enter_group(domain.thread_group):
        benchmark(wrapper.size)


@pytest.mark.parametrize("n_policies", [1, 64])
def test_secman_checked_call(benchmark, world, domain, n_policies):
    guarded = secman_guarded(world, n_policies)
    with enter_group(domain.thread_group):
        benchmark(guarded.size)


def test_safe_env_call(benchmark, world, domain):
    safe = safe_env(world)
    with enter_group(domain.thread_group):
        benchmark(lambda: safe.invoke("buf", "size"))


# ---------------------------------------------------------------------------
# The regenerated comparison table
# ---------------------------------------------------------------------------


def test_table_f5(benchmark, world):
    def build_table():
        domain = world.agent_domain(Rights.all())
        rows = []
        buf = make_buffer()
        baseline = time_op(buf.size)
        variants = [
            ("direct (no protection)", buf.size),
            ("proxy, unconfined", None),
            ("proxy, confined", None),
            ("proxy, ring0 (trusted launcher)", None),
            ("proxy, ring2 (per-call audit)", None),
            ("wrapper+ACL (1 entry)", None),
            ("wrapper+ACL (16 entries)", None),
            ("wrapper+ACL (64 entries)", None),
            ("secman-checked (1 policy)", None),
            ("secman-checked (64 policies)", None),
            ("safe-tcl two-environment", None),
        ]
        with enter_group(domain.thread_group):
            from repro.core.token import RING_TRUSTED, RING_UNTRUSTED

            p_u = proxy_for(world, domain, confine=False)
            p_c = proxy_for(world, domain, confine=True)
            p_r0 = proxy_at_ring(world, domain, RING_TRUSTED)
            p_r2 = proxy_at_ring(world, domain, RING_UNTRUSTED)
            w1, w16, w64 = acl_wrapper(1), acl_wrapper(16), acl_wrapper(64)
            s1 = secman_guarded(world, 1)
            s64 = secman_guarded(world, 64)
            se = safe_env(world)
            timings = {
                "direct (no protection)": baseline,
                "proxy, unconfined": time_op(p_u.size),
                "proxy, confined": time_op(p_c.size),
                "proxy, ring0 (trusted launcher)": time_op(p_r0.size),
                "proxy, ring2 (per-call audit)": time_op(p_r2.size),
                "wrapper+ACL (1 entry)": time_op(w1.size),
                "wrapper+ACL (16 entries)": time_op(w16.size),
                "wrapper+ACL (64 entries)": time_op(w64.size),
                "secman-checked (1 policy)": time_op(s1.size),
                "secman-checked (64 policies)": time_op(s64.size),
                "safe-tcl two-environment": time_op(
                    lambda: se.invoke("buf", "size")
                ),
            }
        for label, _ in variants:
            ns = timings[label]
            rows.append([label, ns, ns / baseline])
        return rows

    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    write_table(
        "F5",
        "per-invocation cost by access-control design (Fig. 5 / section 5.4)",
        ["design", "ns/call", "x direct"],
        rows,
        seed=4000,
        headline=(
            "proxy, unconfined",
            next(r[2] for r in rows if r[0] == "proxy, unconfined"),
            "x direct",
        ),
        notes=(
            "expected shape: proxy ≈ small constant over direct;"
            " wrapper grows with ACL length; the central manager re-runs a"
            " full policy evaluation per call (its table lookup is O(1) —"
            " the paper's objection to it is modularity, not lookup cost);"
            " two-environment pays screening + marshalling every call."
            "  ring0 skips audit bookkeeping (≈ unconfined proxy); ring2"
            " adds one audit record per call — full mediation for"
            " untrusted tenants."
        ),
    )
