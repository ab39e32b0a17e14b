"""F3 — the generic resource skeleton (Fig. 3).

The ``Resource`` interface's generic queries (name, owner, kind,
interface) as seen directly and through a proxy, plus reflection over the
exported interface — the machinery every application resource inherits.
"""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.policy import SecurityPolicy
from repro.core.resource import exported_methods, permission_for
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group

from _common import BenchWorld, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


@pytest.fixture(scope="module")
def setup(world):
    buf = Buffer(URN.parse("urn:resource:bench.org/b"), OWNER,
                 SecurityPolicy.allow_all(confine=False))
    domain = world.agent_domain(Rights.all())
    proxy = buf.get_proxy(domain.credentials, world.context(domain))
    return buf, domain, proxy


def test_resource_name_direct(benchmark, setup):
    buf, _, _ = setup
    benchmark(buf.resource_name)


def test_resource_name_via_proxy(benchmark, setup):
    buf, domain, proxy = setup
    with enter_group(domain.thread_group):
        benchmark(proxy.resource_name)


def test_interface_reflection(benchmark):
    benchmark(exported_methods, Buffer)


def test_permission_formatting(benchmark):
    benchmark(permission_for, Buffer, "get")


def test_table_f3(benchmark, setup):
    buf, domain, proxy = setup

    def build():
        with enter_group(domain.thread_group):
            return [
                ["resource_name (direct)", time_op(buf.resource_name)],
                ["resource_name (proxy)", time_op(proxy.resource_name)],
                ["resource_kind (direct)", time_op(buf.resource_kind)],
                ["resource_kind (proxy)", time_op(proxy.resource_kind)],
                ["resource_interface (direct)", time_op(buf.resource_interface)],
                ["exported_methods reflection", time_op(lambda: exported_methods(Buffer))],
            ]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "F3",
        "generic Resource queries (Fig. 3)",
        ["operation", "ns/call"],
        rows,
        seed=4000,
        headline=(
            "resource_name (proxy)",
            next(r[1] for r in rows if r[0] == "resource_name (proxy)"),
            "ns/call",
        ),
        notes="generic queries inherit the same proxy fast path as Fig. 4 methods.",
    )
