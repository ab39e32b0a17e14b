"""F2 — proxy synthesis (Fig. 2's class machinery).

The paper generated proxy classes offline with "a simple lexical
processing tool"; here synthesis happens at runtime, once per resource
class, and instantiation once per (agent, resource).  Measured:

- class synthesis cost vs. interface size (cold cache);
- cached synthesis (the common path);
- proxy instantiation;
- the full authorization path ``get_proxy`` (policy decide + meter +
  instantiation).
"""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.policy import SecurityPolicy
from repro.core.proxy import _proxy_class_cache, synthesize_proxy_class
from repro.core.resource import ResourceImpl, export
from repro.core.access_protocol import AccessProtocol
from repro.credentials.rights import Rights
from repro.naming.urn import URN

from _common import BenchWorld, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")


def make_resource_class(n_methods: int) -> type:
    """A resource class exporting ``n_methods`` trivial methods."""
    namespace = {}
    for i in range(n_methods):
        def method(self, _i=i):
            return _i

        method.__name__ = f"op{i}"
        namespace[f"op{i}"] = export(method)
    return type(f"Wide{n_methods}", (ResourceImpl, AccessProtocol), namespace)


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


@pytest.mark.parametrize("n_methods", [2, 8, 32, 128])
def test_synthesis_cold(benchmark, n_methods):
    cls = make_resource_class(n_methods)

    def synthesize():
        _proxy_class_cache.pop(cls, None)
        return synthesize_proxy_class(cls)

    benchmark(synthesize)


def test_synthesis_cached(benchmark):
    synthesize_proxy_class(Buffer)
    benchmark(synthesize_proxy_class, Buffer)


def test_proxy_instantiation(benchmark, world):
    buf = Buffer(URN.parse("urn:resource:bench.org/b"), OWNER,
                 SecurityPolicy.allow_all(confine=False))
    domain = world.agent_domain(Rights.all())
    context = world.context(domain)
    benchmark(buf.get_proxy, domain.credentials, context)


def test_table_f2(benchmark, world):
    def build():
        rows = []
        for n in (2, 8, 32, 128):
            cls = make_resource_class(n)

            def cold(cls=cls):
                _proxy_class_cache.pop(cls, None)
                synthesize_proxy_class(cls)

            cold_ns = time_op(cold, target_seconds=0.02)
            synthesize_proxy_class(cls)
            cached_ns = time_op(lambda cls=cls: synthesize_proxy_class(cls),
                                target_seconds=0.02)
            resource = cls(URN.parse(f"urn:resource:bench.org/w{n}"), OWNER)
            resource.init_access_protocol(SecurityPolicy.allow_all(confine=False))
            domain = world.agent_domain(Rights.all())
            context = world.context(domain)
            get_proxy_ns = time_op(
                lambda: resource.get_proxy(domain.credentials, context),
                target_seconds=0.02,
            )
            rows.append([n, cold_ns, cached_ns, get_proxy_ns])
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    write_table(
        "F2",
        "proxy class synthesis and grant cost vs interface width (Fig. 2)",
        ["exported methods", "synth cold ns", "synth cached ns", "get_proxy ns"],
        rows,
        seed=4000,
        headline=(
            "get_proxy, 8 exported methods",
            next(r[3] for r in rows if r[0] == 8), "ns",
        ),
        notes=(
            "synthesis is linear in interface width but paid once per class;"
            " get_proxy grows with width (policy decides per method) and is"
            " paid once per (agent, resource) — after that every call is the"
            " F5 fast path."
        ),
    )
