"""C2 — accounting and metering overhead (section 5.5).

What does billing cost on the proxy's fast path?  Configurations:

- unmetered proxy (baseline);
- metered, counting only (free tariff);
- metered with per-call prices (charge accumulation + sink callback);
- metered with quotas (bound check per call);
- metered with elapsed-time charging (two clock reads per call).
"""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.accounting import Tariff
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group

from _common import BenchWorld, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")


def metered_proxy(world, *, metered: bool, tariff: Tariff | None = None,
                  quota: int | None = None):
    quotas = {"Buffer.size": quota} if quota is not None else {}
    policy = SecurityPolicy(
        rules=[
            PolicyRule("any", "*", Rights.of("Buffer.*", quotas=quotas),
                       confine=False, metered=metered)
        ]
    )
    buf = Buffer(URN.parse("urn:resource:bench.org/b"), OWNER, policy,
                 tariff=tariff)
    domain = world.agent_domain(Rights.all())
    return domain, buf.get_proxy(domain.credentials, world.context(domain))


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


def test_unmetered(benchmark, world):
    domain, proxy = metered_proxy(world, metered=False)
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_metered_counting(benchmark, world):
    domain, proxy = metered_proxy(world, metered=True)
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_metered_priced(benchmark, world):
    domain, proxy = metered_proxy(
        world, metered=True, tariff=Tariff.of({"size": 0.001})
    )
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_metered_timed(benchmark, world):
    domain, proxy = metered_proxy(
        world, metered=True, tariff=Tariff.of({}, per_second=1.0)
    )
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_table_c2(benchmark, world):
    def build():
        rows = []
        configs = [
            ("unmetered", dict(metered=False)),
            ("counting only", dict(metered=True)),
            ("per-call price", dict(metered=True, tariff=Tariff.of({"size": 0.001}))),
            ("quota check", dict(metered=True, quota=10**9)),
            ("elapsed-time rate", dict(metered=True,
                                       tariff=Tariff.of({}, per_second=1.0))),
        ]
        baseline = None
        for label, kw in configs:
            domain, proxy = metered_proxy(world, **kw)
            with enter_group(domain.thread_group):
                ns = time_op(proxy.size)
            if baseline is None:
                baseline = ns
            rows.append([label, ns, (ns - baseline) / baseline * 100])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "C2",
        "metering overhead on the proxy call path (section 5.5)",
        ["configuration", "ns/call", "overhead % vs unmetered"],
        rows,
        seed=4000,
        headline=(
            "counting-only metering overhead",
            next(r[2] for r in rows if r[0] == "counting only"),
            "% vs unmetered",
        ),
        notes=(
            "counting/quota metering is a dict update on the fast path;"
            " elapsed-time billing adds two clock reads — all small"
            " multiples, supporting the paper's embed-it-in-the-proxy design."
        ),
    )
