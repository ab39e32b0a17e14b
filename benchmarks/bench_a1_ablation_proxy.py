"""A1 — ablation: why the proxy front-loads policy evaluation.

The proxy's defining design choice (section 5.4) is *when* authorization
work happens.  Three points on that axis, all enforcing the same policy:

1. **precomputed set** (the shipped design): ``get_proxy`` evaluates the
   policy once; each call tests membership in a set;
2. **memoised decision**: first call per method evaluates, later calls
   hit a per-method cache (a middle ground);
3. **re-evaluate per call**: the policy's ``decide`` runs on every
   invocation (what the wrapper/secman designs effectively do).

A second axis: the enabled-set representation on the fast path —
``set`` vs ``frozenset`` vs ``dict`` — to justify the implementation
detail benchmarked in F5.
"""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.policy import SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group

from _common import BenchWorld, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")


def make_buffer():
    return Buffer(URN.parse("urn:resource:bench.org/b"), OWNER,
                  SecurityPolicy.allow_all(confine=False))


class ReEvaluatingGuard:
    """Variant 3: full policy evaluation per call."""

    def __init__(self, resource, policy, credentials):
        self._ref = resource
        self._policy = policy
        self._credentials = credentials

    def size(self):
        grant = self._policy.decide(self._ref, self._credentials)
        if "size" not in grant.enabled:
            raise PermissionError
        return self._ref.size()


class MemoisedGuard(ReEvaluatingGuard):
    """Variant 2: evaluate once per method, then cache."""

    def __init__(self, resource, policy, credentials):
        super().__init__(resource, policy, credentials)
        self._cache: dict[str, bool] = {}

    def size(self):
        allowed = self._cache.get("size")
        if allowed is None:
            grant = self._policy.decide(self._ref, self._credentials)
            allowed = "size" in grant.enabled
            self._cache["size"] = allowed
        if not allowed:
            raise PermissionError
        return self._ref.size()


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


def test_precomputed_set(benchmark, world):
    buf = make_buffer()
    domain = world.agent_domain(Rights.all())
    proxy = buf.get_proxy(domain.credentials, world.context(domain))
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_memoised(benchmark, world):
    buf = make_buffer()
    creds = world.credentials(Rights.all())
    guard = MemoisedGuard(buf, SecurityPolicy.allow_all(confine=False), creds)
    benchmark(guard.size)


def test_reevaluate_per_call(benchmark, world):
    buf = make_buffer()
    creds = world.credentials(Rights.all())
    guard = ReEvaluatingGuard(buf, SecurityPolicy.allow_all(confine=False), creds)
    benchmark(guard.size)


def test_table_a1(benchmark, world):
    def build():
        rows = []
        buf = make_buffer()
        domain = world.agent_domain(Rights.all())
        creds = domain.credentials
        policy = SecurityPolicy.allow_all(confine=False)
        proxy = buf.get_proxy(creds, world.context(domain))
        with enter_group(domain.thread_group):
            pre = time_op(proxy.size)
        memo = time_op(MemoisedGuard(buf, policy, creds).size)
        reev = time_op(ReEvaluatingGuard(buf, policy, creds).size)
        rows.append(["precomputed enabled-set (shipped)", pre, 1.0])
        rows.append(["memoised per-method decision", memo, memo / pre])
        rows.append(["re-evaluate policy per call", reev, reev / pre])
        # representation micro-ablation
        for label, container in (
            ("set membership", {"size", "put", "get"}),
            ("frozenset membership", frozenset({"size", "put", "get"})),
            ("dict lookup", {"size": True, "put": True, "get": True}),
        ):
            ns = time_op(lambda c=container: "size" in c)
            rows.append([f"fast-path container: {label}", ns, ns / pre])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "A1",
        "ablation: when and how authorization is evaluated",
        ["variant", "ns/call", "x precomputed"],
        rows,
        seed=4000,
        headline=(
            "re-evaluate policy per call",
            next(r[2] for r in rows if r[0] == "re-evaluate policy per call"),
            "x precomputed",
        ),
        notes=(
            "re-evaluating per call costs orders of magnitude more than the"
            " precomputed set; memoisation recovers most of it but cannot"
            " support per-agent selective revocation the way a materialised"
            " enabled-set can (section 5.5)."
        ),
    )
