"""A3 — ablation: how the proxy dispatches (synthesis vs __getattr__).

The shipped design synthesizes one forwarder method per exported method
(the paper's generated proxy classes).  The tempting simpler alternative
is a single dynamic ``__getattr__`` proxy — no synthesis step at all.
This bench measures what that simplicity costs per call, and the table
records the safety difference that settles the question regardless:
a dynamic proxy must *re-derive* the method set on every access, and any
bug there fails open; the synthesized class fails closed (a method that
wasn't generated simply does not exist).
"""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.policy import SecurityPolicy
from repro.core.proxy import synthesize_proxy_class, _proxy_class_cache
from repro.core.resource import exported_methods
from repro.credentials.rights import Rights
from repro.errors import MethodDisabledError
from repro.naming.urn import URN
from repro.sandbox.threadgroup import enter_group

from _common import BenchWorld, time_op, write_table

OWNER = URN.parse("urn:principal:bench.org/owner")


class GetattrProxy:
    """The ablation variant: one dynamic dispatcher, no synthesis."""

    def __init__(self, resource, enabled):
        object.__setattr__(self, "_ref", resource)
        object.__setattr__(self, "_enabled", set(enabled))

    def __getattr__(self, name):
        # Re-derive legality on every *attribute access*.
        if name.startswith("_"):
            raise AttributeError(name)
        if name not in exported_methods(type(self._ref)):
            raise AttributeError(name)
        if name not in self._enabled:
            raise MethodDisabledError(name)
        return getattr(self._ref, name)


def make_buffer():
    return Buffer(URN.parse("urn:resource:bench.org/b"), OWNER,
                  SecurityPolicy.allow_all(confine=False))


@pytest.fixture(scope="module")
def world():
    return BenchWorld()


def test_synthesized_proxy_call(benchmark, world):
    buf = make_buffer()
    domain = world.agent_domain(Rights.all())
    proxy = buf.get_proxy(domain.credentials, world.context(domain))
    with enter_group(domain.thread_group):
        benchmark(proxy.size)


def test_getattr_proxy_call(benchmark, world):
    buf = make_buffer()
    proxy = GetattrProxy(buf, exported_methods(Buffer))
    benchmark(lambda: proxy.size())


def test_getattr_proxy_bound_method_reuse(benchmark, world):
    """The dynamic proxy's best case: caller caches the bound method —
    which also silently BYPASSES all future revocation, the fatal flaw."""
    buf = make_buffer()
    proxy = GetattrProxy(buf, exported_methods(Buffer))
    bound = proxy.size
    benchmark(bound)


def test_table_a3(benchmark, world):
    def build():
        rows = []
        buf = make_buffer()
        domain = world.agent_domain(Rights.all())
        synthesized = buf.get_proxy(domain.credentials, world.context(domain))
        dynamic = GetattrProxy(buf, exported_methods(Buffer))
        with enter_group(domain.thread_group):
            synth_ns = time_op(synthesized.size)
        dyn_ns = time_op(lambda: dynamic.size())
        bound = dynamic.size
        bound_ns = time_op(bound)
        rows.append(["synthesized per-method forwarder (shipped)",
                     synth_ns, "checks every call; fails closed"])
        rows.append(["__getattr__ dynamic proxy",
                     dyn_ns, "re-derives interface per access"])
        rows.append(["__getattr__ with cached bound method",
                     bound_ns, "FAST but bypasses revocation forever"])
        # Demonstrate the bypass concretely for the table note.
        dynamic._enabled.discard("size")
        try:
            dynamic.size()
            revoked_blocked = False
        except MethodDisabledError:
            revoked_blocked = True
        bypassed = bound() == buf.size()  # cached handle still works
        return rows, revoked_blocked, bypassed

    rows, revoked_blocked, bypassed = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    write_table(
        "A3",
        "ablation: proxy dispatch mechanism",
        ["variant", "ns/call", "safety"],
        rows,
        seed=4000,
        headline=("synthesized per-method forwarder", rows[0][1], "ns/call"),
        notes=(
            f"after disabling `size`: dynamic proxy blocks new lookups"
            f" ({revoked_blocked}) but a previously cached bound method still"
            f" reaches the resource ({bypassed}) — the synthesized forwarder"
            " re-checks inside the call, so caching it is harmless."
            " Dispatch speed is comparable; revocation semantics decide."
        ),
    )
